open Types
module Intmap = Terradir_util.Intmap
module Tree = Terradir_namespace.Tree
module Bloom = Terradir_bloom.Bloom

(* The runtime invariant auditor.

   Collects violations of the paper's protocol invariants (the catalogue in
   the .mli) from periodic mid-run passes and an end-of-run pass, instead of
   asserting in the middle of a simulation: a violated invariant should
   produce a report naming every broken property, not die on the first.

   The checks are read-only with one deliberate exception: reading a load
   meter rolls its windows forward to the audit time, which is exactly what
   the next protocol read would have done at a later-or-equal time — audit
   passes never perturb simulation results.  Nothing here draws randomness
   or schedules events. *)

type violation = {
  v_time : float;
  v_server : server_id option;
  v_rule : string;
  v_detail : string;
}

type t = {
  mutable kept : violation list;  (** newest first, at most [max_kept] *)
  mutable kept_count : int;
  mutable total : int;
  mutable passes : int;
  (* lint: boxed-float written once per audit pass, every Cluster.audit_every events *)
  mutable last_clock : float;
}

let max_kept = 200

exception Audit_failure of string

let create () =
  { kept = []; kept_count = 0; total = 0; passes = 0; last_clock = neg_infinity }

let add t ~now ?server rule detail =
  t.total <- t.total + 1;
  if t.kept_count < max_kept then begin
    t.kept <- { v_time = now; v_server = server; v_rule = rule; v_detail = detail } :: t.kept;
    t.kept_count <- t.kept_count + 1
  end

let violations t = List.rev t.kept

let total_violations t = t.total

let describe v =
  let where = match v.v_server with Some s -> Printf.sprintf "server %d" s | None -> "cluster" in
  Printf.sprintf "t=%.3f %s [%s] %s" v.v_time where v.v_rule v.v_detail

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "audit: %d violation(s) over %d pass(es)\n" t.total t.passes);
  List.iter
    (fun v ->
      Buffer.add_string b (describe v);
      Buffer.add_char b '\n')
    (violations t);
  if t.total > t.kept_count then
    Buffer.add_string b (Printf.sprintf "... and %d more (first %d kept)\n" (t.total - t.kept_count) max_kept);
  Buffer.contents b

(* ---- enabling ---- *)

(* [`Collect] is set (before any worker domain spawns) by the CLI's --audit:
   end-of-run violations accumulate here for a final printed report instead
   of raising.  The default [`Raise] is what the test suite runs under. *)
let mode : [ `Raise | `Collect ] ref = ref `Raise (* race: bare-shared-mutable single-writer: the CLI sets --audit mode before any domain spawns *)

let set_mode m = mode := m

(* Set alongside [`Collect] by --audit so auditing turns on without
   touching the environment; read (never written) from worker domains. *)
let forced = ref false (* race: bare-shared-mutable single-writer: set by --audit before any domain spawns, workers only read *)

let force_enable () = forced := true

let env_enabled () =
  match Sys.getenv_opt "TERRADIR_AUDIT" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let enabled () = !forced || env_enabled ()

let collector_mutex = Mutex.create ()

let collected_reports_rev : string list ref = ref []

let collect_report r =
  Mutex.lock collector_mutex;
  collected_reports_rev := r :: !collected_reports_rev;
  Mutex.unlock collector_mutex

let collected_reports () =
  Mutex.lock collector_mutex;
  let r = List.rev !collected_reports_rev in
  Mutex.unlock collector_mutex;
  r

(* Raise or stash this auditor's findings; called at the end of every
   [Cluster.run_until].  Resets the collected state either way so back-to-
   back run segments do not re-deliver old findings. *)
let deliver t ~label =
  if t.total > 0 then begin
    let r = Printf.sprintf "%s\n%s" label (report t) in
    t.kept <- [];
    t.kept_count <- 0;
    t.total <- 0;
    match !mode with
    | `Raise -> raise (Audit_failure r)
    | `Collect -> collect_report r
  end

(* ---- the checks ---- *)

let check_map t ~now ~server ~r_map ~what node map =
  if Node_map.size map > r_map then
    add t ~now ~server "map-bound"
      (Printf.sprintf "%s map for node %d has %d entries > r_map=%d" what node
         (Node_map.size map) r_map);
  (* Causality: an entry's stamp records when it was created/refreshed, so
     no entry may be stamped in the simulation's future. *)
  List.iter
    (fun (e : Node_map.entry) ->
      if e.Node_map.stamp > now then
        add t ~now ~server "stamp-future"
          (Printf.sprintf "%s map for node %d stamps server %d at %g > now %g" what node
             e.Node_map.server e.Node_map.stamp now))
    (Node_map.entries map)

(* Every per-server invariant from the catalogue.  The table walks are
   order-insensitive: each key is checked independently and counters are
   commutative sums. *)
let check_server t ~now (s : Server.t) =
  let server = s.Server.id in
  let config = s.Server.config in
  let r_map = config.Config.r_map in
  let owned = ref 0 and replicas = ref 0 in
  Intmap.iter s.Server.hosted ~f:(fun node (h : Server.hosted) ->
      (match h.Server.h_kind with
      | Server.Owned -> incr owned
      | Server.Replicated -> incr replicas);
      check_map t ~now ~server ~r_map ~what:"hosted" node h.Server.h_map;
      (* Self-presence holds for every hosted node: owned self entries
         carry the owner flag (pinned through every merge/truncation), and
         replica self entries go through [Node_map.add_pinned], which
         survives truncation by displacing the lowest-priority non-owner.
         The one remaining exception: owners alone fill the map (r_map
         owner entries) — pinning never displaces an owner, so a replica's
         non-owner self entry genuinely cannot fit. *)
      (if not (Node_map.mem h.Server.h_map server) then
         let owners_fill_map =
           Node_map.size h.Server.h_map >= r_map
           && List.for_all
                (fun (e : Node_map.entry) -> e.Node_map.is_owner)
                (Node_map.entries h.Server.h_map)
         in
         if h.Server.h_kind = Server.Owned || not owners_fill_map then
           add t ~now ~server "self-missing"
             (Printf.sprintf "%s node %d's map does not list this server"
                (match h.Server.h_kind with Server.Owned -> "owned" | Server.Replicated -> "replica")
                node));
      List.iter
        (fun nb ->
          if (not (Intmap.mem s.Server.neighbor_maps nb)) && not (Server.hosts s nb) then
            add t ~now ~server "context-missing"
              (Printf.sprintf "hosted node %d lacks context for tree-neighbor %d" node nb))
        (Tree.neighbors s.Server.tree node);
      if not (Bloom.mem (Digest_store.local s.Server.digests) node) then
        add t ~now ~server "digest-stale"
          (Printf.sprintf "local digest denies hosted node %d (Bloom false negative)" node));
  (* Routing sweeps the hosted table's dense keys; each must resolve, via
     the table's index, to the very slot it sits in. *)
  for i = 0 to Intmap.length s.Server.hosted - 1 do
    let node = Intmap.key_at s.Server.hosted i in
    let found = Intmap.slot s.Server.hosted node in
    if found <> i then
      add t ~now ~server "hosted-index"
        (Printf.sprintf "node %d sits at dense slot %d but its index resolves to %d" node i found)
  done;
  if !owned <> s.Server.owned_count then
    add t ~now ~server "count-mismatch"
      (Printf.sprintf "owned_count=%d but %d owned nodes hosted" s.Server.owned_count !owned);
  if !replicas <> s.Server.replica_count then
    add t ~now ~server "count-mismatch"
      (Printf.sprintf "replica_count=%d but %d replicas hosted" s.Server.replica_count !replicas);
  (* §3.4: replicas hosted never exceed r_fact × nodes owned. *)
  let bound = int_of_float (config.Config.r_fact *. float_of_int s.Server.owned_count) in
  if s.Server.replica_count > bound then
    add t ~now ~server "replica-bound"
      (Printf.sprintf "%d replicas > floor(r_fact=%.2f x %d owned) = %d" s.Server.replica_count
         config.Config.r_fact s.Server.owned_count bound);
  (* Neighbor contexts: bounded maps and refcounts that tie exactly to the
     hosted set.  Note a context map for a non-hosted node MAY list this
     server: bootstrap seeds contexts from ground-truth ownership, and an
     evicted replica leaves the holder's own (now stale) entry behind in
     its other maps — legitimate soft state that decays through the usual
     stale-forward machinery, with routing excluding self as a target. *)
  let expected_refs = Hashtbl.create 64 in
  Intmap.iter s.Server.hosted ~f:(fun node _ ->
      List.iter
        (fun nb ->
          Hashtbl.replace expected_refs nb
            (1 + Option.value ~default:0 (Hashtbl.find_opt expected_refs nb)))
        (Tree.neighbors s.Server.tree node));
  Intmap.iter s.Server.neighbor_maps ~f:(fun nb (r : Server.neighbor_ref) ->
      check_map t ~now ~server ~r_map ~what:"neighbor" nb r.Server.n_map;
      match Hashtbl.find_opt expected_refs nb with
      | Some n when n = r.Server.refs -> ()
      | Some n ->
        add t ~now ~server "context-refs"
          (Printf.sprintf "neighbor %d refcount %d, expected %d" nb r.Server.refs n)
      | None ->
        add t ~now ~server "context-refs"
          (Printf.sprintf "neighbor map for %d but no hosted node references it" nb));
  (* lint: ordered independent per-neighbor presence checks; visit order immaterial *)
  Hashtbl.iter
    (fun nb n ->
      if not (Intmap.mem s.Server.neighbor_maps nb) then
        add t ~now ~server "context-missing"
          (Printf.sprintf "no neighbor map for node %d (%d hosted references)" nb n))
    expected_refs;
  (* Cache: LRU occupancy within capacity, entries bounded.  As with
     neighbor contexts, a cached map listing this server for a non-hosted
     node is tolerated stale state, not corruption. *)
  if Cache.length s.Server.cache > Cache.slots s.Server.cache then
    add t ~now ~server "cache-bound"
      (Printf.sprintf "cache holds %d entries > %d slots" (Cache.length s.Server.cache)
         (Cache.slots s.Server.cache));
  Cache.iter s.Server.cache ~f:(fun node map ->
      (* Routing's cache scan takes every key as a usable candidate. *)
      if Node_map.is_empty map then
        add t ~now ~server "cache-empty-map" (Printf.sprintf "cache holds an empty map for node %d" node);
      check_map t ~now ~server ~r_map ~what:"cached" node map);
  (* Load meter: busy fractions are fractions. *)
  let raw = Load_meter.raw_load s.Server.load now in
  if not (raw >= 0.0 && raw <= 1.0) then
    add t ~now ~server "load-range" (Printf.sprintf "raw load %g outside [0, 1]" raw);
  let adj = Load_meter.load s.Server.load now in
  if not (adj >= 0.0 && adj <= 1.0) then
    add t ~now ~server "load-range" (Printf.sprintf "adjusted load %g outside [0, 1]" adj);
  (* Queue bound: the admission check must keep occupancy within the
     fixed capacity. *)
  if Server.queue_length s > Server.queue_capacity then
    add t ~now ~server "queue-bound"
      (Printf.sprintf "query queue %d > capacity %d" (Server.queue_length s) Server.queue_capacity)

let check_cluster t ~now ~next_event ~(servers : Server.t array) ~(owner_of : server_id array) =
  t.passes <- t.passes + 1;
  (* Simulation-time sanity: the clock never regresses between audit
     passes, and no pending event sits in the past. *)
  if now < t.last_clock then
    add t ~now "clock-regression"
      (Printf.sprintf "clock %g before previous audit time %g" now t.last_clock);
  t.last_clock <- now;
  (match next_event with
  | Some nt when nt < now ->
    add t ~now "event-queue-order" (Printf.sprintf "earliest pending event %g < now %g" nt now)
  | Some _ | None -> ());
  Array.iter (fun s -> check_server t ~now s) servers;
  (* Ownership placement: every node's ground-truth owner hosts it as
     owned (ownership is durable — it survives even fail-stop). *)
  Array.iteri
    (fun node owner ->
      match Server.find_hosted servers.(owner) node with
      | Some h when h.Server.h_kind = Server.Owned -> ()
      | Some _ ->
        add t ~now "owner-missing" (Printf.sprintf "server %d holds node %d only as replica" owner node)
      | None ->
        add t ~now "owner-missing" (Printf.sprintf "server %d does not host its node %d" owner node))
    owner_of

(* Raising convenience for tests and the legacy check_invariants entry
   points: run one pass over a single server and fail on the first
   violation. *)
let assert_server (s : Server.t) ~now =
  let t = create () in
  check_server t ~now s;
  match violations t with [] -> () | v :: _ -> failwith ("Invariant: " ^ describe v)
