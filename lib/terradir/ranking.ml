open Terradir_util

type t = float Intmap.t

let create () : t = Intmap.create ()

let weight t node =
  match Intmap.slot t node with -1 -> 0.0 | i -> Intmap.value_at t i

(* In place for a known node: touched once per processed query. *)
let touch t node =
  match Intmap.slot t node with
  | -1 -> Intmap.add t node 1.0
  | i -> Intmap.add_at t i 1.0

let seed t node w = Intmap.replace t node (Float.max 0.0 w)

(* Downward over the slots: dropping slot [i] moves the last entry into
   it, and that entry has already been halved. *)
let decay t =
  let floor = 1.0 /. 64.0 in
  for i = Intmap.length t - 1 downto 0 do
    let w' = Intmap.value_at t i /. 2.0 in
    if w' < floor then Intmap.remove_at t i else Intmap.set_at t i w'
  done

let remove t node = Intmap.remove t node

let compare_desc (n1, w1) (n2, w2) =
  match Float.compare w2 w1 with 0 -> Int.compare n1 n2 | c -> c

let ranked_desc t ~among =
  List.sort compare_desc (List.map (fun n -> (n, weight t n)) among)

let ranked_asc t ~among = List.rev (ranked_desc t ~among)

let total_weight t ~among = List.fold_left (fun acc n -> acc +. weight t n) 0.0 among
