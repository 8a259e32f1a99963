open Terradir_util
open Terradir_namespace
open Terradir_sim

type dist = Uniform | Zipf of { alpha : float; reshuffle : bool }

type phase = { duration : float; rate : float; dist : dist }

let unif ~rate ~duration = [ { duration; rate; dist = Uniform } ]

let uzipf ~rate ~warmup ~alpha ~shift_every ~shifts =
  let zipf_phase = { duration = shift_every; rate; dist = Zipf { alpha; reshuffle = true } } in
  { duration = warmup; rate; dist = Uniform } :: List.init shifts (fun _ -> zipf_phase)

let total_duration phases = List.fold_left (fun acc p -> acc +. p.duration) 0.0 phases

let check_phases ~context phases =
  let fail what = invalid_arg (context ^ ": " ^ what) in
  if phases = [] then fail "empty phase list";
  List.iter
    (fun p ->
      if not (p.rate > 0.0 && Float.is_finite p.rate) then fail "rate must be positive";
      if not (p.duration > 0.0 && Float.is_finite p.duration) then fail "duration must be positive")
    phases

type sampler = {
  tree_size : int;
  rng : Splitmix.t;
  mutable ranking : int array; (* rank -> node *)
  mutable zipf : Dist.Zipf.t option;
}

let sampler ~tree ~seed =
  let rng = Splitmix.create seed in
  let n = Tree.size tree in
  { tree_size = n; rng; ranking = Splitmix.permutation rng n; zipf = None }

let install s dist =
  match dist with
  | Uniform -> s.zipf <- None
  | Zipf { alpha; reshuffle } ->
    (match s.zipf with
    | Some z when Dist.Zipf.alpha z = alpha -> ()
    | Some _ | None -> s.zipf <- Some (Dist.Zipf.create ~alpha ~n:s.tree_size));
    if reshuffle then s.ranking <- Splitmix.permutation s.rng s.tree_size

let sample s =
  match s.zipf with
  | None -> Splitmix.int s.rng s.tree_size
  | Some z -> s.ranking.(Dist.Zipf.sample z s.rng)

let rank_of_node s node =
  let rec find i = if s.ranking.(i) = node then i else find (i + 1) in
  if node < 0 || node >= s.tree_size then invalid_arg "Stream.rank_of_node: bad node";
  find 0
