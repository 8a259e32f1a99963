(* Unit tests for the domain-safety race check: each rule fires on a
   minimal lane-reachable snippet and is silenced by its suppression,
   clean synchronization idioms stay silent, the interprocedural guard
   fixpoint proves lock-held helpers safe, and the effect summaries are
   stable under declaration reordering (the analysis is a fixpoint over
   sets, so source order must not leak into its output). *)

module R = Terradir_racecheck.Racecheck

let rules ?mli source =
  let files =
    match mli with
    | Some s -> [ ("snippet.ml", source); ("snippet.mli", s) ]
    | None -> [ ("snippet.ml", source) ]
  in
  R.findings (R.analyze files) |> List.map (fun f -> f.R.rule) |> List.sort String.compare

let check ?mli name expected source =
  Alcotest.(check (list string)) name expected (rules ?mli source)

(* Every snippet needs a lane entry (here: an [Engine.schedule] site) or
   its roots are main-only and out of scope — which the first test pins. *)

let test_bare_shared_mutable () =
  check "bare ref written from lane code" [ "bare-shared-mutable" ]
    "let hits = ref 0\n\
     let on_event () = hits := !hits + 1\n\
     let install e = Engine.schedule e ~delay:1.0 on_event";
  check "main-only mutation is out of scope" []
    "let hits = ref 0\nlet bump () = hits := !hits + 1";
  check "never-written root is fine" []
    "let limit = ref 10\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> ignore !limit)";
  check "main-written, lane-read still flags (writer discipline is not static)"
    [ "bare-shared-mutable" ]
    "let limit = ref 10\n\
     let set_limit v = limit := v\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> ignore !limit)";
  check "suppression silences it" []
    "let hits = ref 0 (* race: bare-shared-mutable test double for a pre-spawn-only write *)\n\
     let on_event () = hits := !hits + 1\n\
     let install e = Engine.schedule e ~delay:1.0 on_event"

let test_inconsistent_guard () =
  let source =
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let guarded k = Mutex.protect lock (fun () -> Hashtbl.replace table k k)\n\
     let bare k = Hashtbl.replace table k k\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1; bare 2)"
  in
  check "bare write next to guarded writes" [ "inconsistent-guard" ] source;
  check "consistent Mutex.protect is clean" []
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let guarded k = Mutex.protect lock (fun () -> Hashtbl.replace table k k)\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1)";
  check "lock/unlock spans count as guards" []
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let guarded k = Mutex.lock lock; Hashtbl.replace table k k; Mutex.unlock lock\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1)";
  check "lane read without the write-side lock" [ "inconsistent-guard" ]
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let guarded k = Mutex.protect lock (fun () -> Hashtbl.replace table k k)\n\
     let peek () = Hashtbl.length table\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1; ignore (peek ()))";
  check "a write through a deref writes the ref's root" [ "inconsistent-guard" ]
    "let lock = Mutex.create ()\n\
     let slots = ref (Array.make 8 0)\n\
     let guarded i = Mutex.protect lock (fun () -> !slots.(i) <- 1)\n\
     let bare i = !slots.(i) <- 2\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1; bare 2)";
  check "suppression silences it" []
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let guarded k = Mutex.protect lock (fun () -> Hashtbl.replace table k k)\n\
     let bare k = Hashtbl.replace table k k (* race: inconsistent-guard test double *)\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1; bare 2)"

let test_atomic_rmw () =
  check "get -> set loses updates" [ "atomic-read-modify-write" ]
    "let counter = Atomic.make 0\n\
     let bump () = Atomic.set counter (Atomic.get counter + 1)\n\
     let install e = Engine.schedule e ~delay:1.0 bump";
  check "fetch_and_add is clean" []
    "let counter = Atomic.make 0\n\
     let bump () = ignore (Atomic.fetch_and_add counter 1)\n\
     let install e = Engine.schedule e ~delay:1.0 bump";
  check "get -> set under one lock is clean" []
    "let lock = Mutex.create ()\n\
     let counter = Atomic.make 0\n\
     let bump () = Mutex.protect lock (fun () -> Atomic.set counter (Atomic.get counter + 1))\n\
     let install e = Engine.schedule e ~delay:1.0 bump";
  check "suppression silences it" []
    "let counter = Atomic.make 0\n\
     let bump () = Atomic.set counter (Atomic.get counter + 1) (* race: \
     atomic-read-modify-write test double *)\n\
     let install e = Engine.schedule e ~delay:1.0 bump"

let test_outbox_bypass () =
  check "direct Shard.enqueue outside the engine" [ "outbox-bypass" ]
    "let sneak lane = Shard.enqueue lane ~key:0.0 ~tie:0 ~tag:0 (fun () -> ())";
  check "suppression silences it" []
    "(* race: outbox-bypass test double *)\n\
     let sneak lane = Shard.enqueue lane ~key:0.0 ~tie:0 ~tag:0 (fun () -> ())";
  (* The pooled-record discipline (DESIGN §16): free lists are per-lane
     fields on the cluster, never module-level.  A module-level pool a lane
     recycles into, combined with a direct cross-lane [Shard.enqueue] to
     hand a recycled record over, fires both rules. *)
  check "shared message pool recycled across lanes behind the outbox"
    [ "bare-shared-mutable"; "outbox-bypass" ]
    "let msg_pool = Queue.create ()\n\
     let recycle m = Queue.push m msg_pool\n\
     let reinject lane = Shard.enqueue lane ~key:0.0 ~tie:0 ~tag:0 (fun () -> Queue.pop \
     msg_pool)\n\
     let pump e = Engine.schedule e ~delay:1.0 (fun () -> recycle 1)"

(* The interprocedural part: a non-exported helper whose only references
   sit inside [Mutex.protect lock (fun () -> ...)] closures inherits the
   guard, so its bare write into [table] is safe.  Exporting the helper
   through the .mli forfeits the proof: anyone may call it bare. *)
let test_guard_fixpoint () =
  let source =
    "let lock = Mutex.create ()\n\
     let table = Hashtbl.create 8\n\
     let helper k = Hashtbl.replace table k k\n\
     let add k = Mutex.protect lock (fun () -> helper k)\n\
     let install e = Engine.schedule e ~delay:1.0 (fun () -> add 1)"
  in
  let mli = "val add : int -> unit\nval install : 'a -> unit" in
  check ~mli "hidden helper inherits its callers' lock" [] source;
  check "exported helper may be called bare" [ "bare-shared-mutable" ] source

let test_parse_error () =
  check "unparsable input reported" [ "parse-error" ] "let let let"

(* Summaries (and finding rules) must not depend on declaration order:
   shuffle independent top-level blocks and compare the CSV byte-wise. *)
let prop_reorder_stable =
  let blocks =
    [|
      "let lock = Mutex.create ()";
      "let table = Hashtbl.create 8";
      "let counter = Atomic.make 0";
      "let bump () = ignore (Atomic.fetch_and_add counter 1)";
      "let guarded k = Mutex.protect lock (fun () -> Hashtbl.replace table k k)";
      "let peek () = Hashtbl.length table";
      "let install e = Engine.schedule e ~delay:1.0 (fun () -> guarded 1; bump (); ignore (peek ()))";
    |]
  in
  let analyze_order order =
    let source = String.concat "\n" (List.map (fun i -> blocks.(i)) order) in
    let a = R.analyze [ ("snippet.ml", source) ] in
    (R.summaries a, R.findings a |> List.map (fun f -> f.R.rule) |> List.sort String.compare)
  in
  let canonical = analyze_order [ 0; 1; 2; 3; 4; 5; 6 ] in
  QCheck.Test.make ~name:"racecheck: summaries stable across declaration reordering" ~count:60
    QCheck.(list_of_size (Gen.return 12) (int_bound 1000))
    (fun seeds ->
      (* Derive a permutation from the generated seeds (Fisher-Yates with
         the seed stream as the randomness source). *)
      let order = Array.init (Array.length blocks) Fun.id in
      List.iteri
        (fun i seed ->
          let n = Array.length order in
          let j = i mod n and k = seed mod n in
          let tmp = order.(j) in
          order.(j) <- order.(k);
          order.(k) <- tmp)
        seeds;
      analyze_order (Array.to_list order) = canonical)

let () =
  Alcotest.run "terradir_racecheck"
    [
      ( "rules",
        [
          Alcotest.test_case "bare shared mutable" `Quick test_bare_shared_mutable;
          Alcotest.test_case "inconsistent guard" `Quick test_inconsistent_guard;
          Alcotest.test_case "atomic rmw" `Quick test_atomic_rmw;
          Alcotest.test_case "outbox bypass" `Quick test_outbox_bypass;
          Alcotest.test_case "guard fixpoint" `Quick test_guard_fixpoint;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "stability",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_reorder_stable ] );
    ]
