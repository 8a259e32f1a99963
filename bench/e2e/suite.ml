(* Multi-workload commands: [all] (every workload, repeated, with
   medians and quartiles) and [smoke] (every workload at the tiny size,
   checked against BENCHMARK.json). *)

let fail = Driver.fail

(* ---- all ---- *)

(* [reps] untraced trajectories per workload, the workload order
   alternating between repetitions, then one traced trajectory and its
   two-domain twin each. *)
let all ~reps ~seed ~size ~out =
  let runs = List.map (fun w -> (w.Workload.name, ref [])) Workload.all in
  for rep = 0 to reps - 1 do
    let order = if rep mod 2 = 0 then Workload.all else List.rev Workload.all in
    List.iter
      (fun w ->
        let e = Driver.spawn w ~size ~seed ~mode:Episode.Run in
        let acc = List.assoc w.Workload.name runs in
        acc := e :: !acc)
      order
  done;
  let episodes name = List.rev !(List.assoc name runs) in
  let results =
    List.map
      (fun (w : Workload.t) ->
        let traced, twin = Driver.traced_pair w ~size ~seed in
        let episodes = episodes w.Workload.name in
        let checks = Driver.cross_check w ~seed ~episodes ~twin ~traced in
        { Driver.workload = w; seed; size; setups = []; episodes; twin; traced; checks })
      Workload.all
  in
  List.iter Driver.print_table results;
  let stat name vs =
    let q1, q3 = Quantile.quartiles vs in
    Printf.sprintf
      "        %S: {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d, \"unit\": %S, \
       \"values\": [%s]}"
      name
      (Driver.json_number (Quantile.median vs))
      (Driver.json_number q1) (Driver.json_number q3) (List.length vs) (Driver.unit_of name)
      (String.concat ", " (List.map Driver.json_number vs))
  in
  let workload (r : Driver.run) =
    let layers = Option.get (Driver.per_layer r) in
    Printf.sprintf
      "    %S: {\n\
      \      \"checks\": [%s],\n\
      \      \"end_to_end\": {\n%s\n      },\n\
      \      \"per_layer\": %s\n\
      \    }"
      r.Driver.workload.Workload.name
      (String.concat ", " (List.map (Printf.sprintf "%S") r.Driver.checks))
      (String.concat ",\n" (List.map (fun (name, vs) -> stat name vs) (Driver.end_to_end r)))
      (Driver.json_metrics layers)
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"seed\": %d,\n  \"reps\": %d,\n  \"size\": %S,\n  \"workloads\": {\n%s\n  }\n}\n" seed
    reps (Workload.string_of_size size)
    (String.concat ",\n" (List.map workload results));
  close_out oc;
  Printf.printf "report written to %s\n" out

(* ---- smoke ---- *)

module Json = Terradir_trace_check.Json

let listed doc key =
  match Json.member key doc with
  | Some (Json.Arr items) ->
    List.map
      (fun item ->
        match (Json.member "name" item, Json.member "unit" item) with
        | Some (Json.Str name), Some (Json.Str u) -> (name, Some u)
        | Some (Json.Str name), None -> (name, None)
        | _ -> fail "BENCHMARK.json: an entry of %s has no name" key)
      items
  | _ -> fail "BENCHMARK.json: no %s list" key

let expect_same what ~listed ~reported =
  if listed <> reported then
    fail "BENCHMARK.json %s (%s) disagree with the benchmark's own (%s)" what
      (String.concat " " (List.map fst listed))
      (String.concat " " (List.map fst reported))

(* Every workload at the tiny size, traced.  Fails unless BENCHMARK.json
   names exactly the benchmark's workloads and metrics, both result lines
   parse and carry every listed metric with its unit, and every
   correctness check ran. *)
let smoke ~benchmark =
  let doc = Json.parse (In_channel.with_open_text benchmark In_channel.input_all) in
  let e2e = listed doc "end_to_end" and layers = listed doc "per_layer" in
  expect_same "workloads" ~listed:(listed doc "workloads")
    ~reported:(List.map (fun w -> (w.Workload.name, None)) Workload.all);
  let with_units = List.map (fun (n, u) -> (n, Some u)) in
  expect_same "end_to_end metrics" ~listed:e2e ~reported:(with_units Catalog.end_to_end);
  expect_same "per_layer metrics" ~listed:layers ~reported:(with_units Catalog.per_layer);
  let ran = ref [] in
  List.iter
    (fun w ->
      let r = Driver.run w ~size:Workload.Tiny ~seed:42 ~seconds:0.0 ~trace:true in
      Printf.printf "smoke: %s: checks %s\n" w.Workload.name (String.concat " " r.Driver.checks);
      List.iter
        (fun (trace, expected) ->
          let line = Json.parse (Driver.result_line r ~trace) in
          let field k = Json.member k line in
          (match (field "correct", field "attempted", field "failed") with
          | Some (Json.Bool true), Some (Json.Num a), Some (Json.Num _) when a >= 1.0 -> ()
          | _ -> fail "%s: malformed result line" w.Workload.name);
          let metrics = Option.value (Json.member "metrics" line) ~default:Json.Null in
          List.iter
            (fun (name, u) ->
              match Option.bind (Json.member name metrics) (Json.member "unit") with
              | Some (Json.Str got) when Some got = u -> ()
              | _ -> fail "%s: result line lacks %s" w.Workload.name name)
            expected)
        [ (false, e2e); (true, layers) ];
      ran := r.Driver.checks @ !ran)
    Workload.all;
  List.iter
    (fun c -> if not (List.mem c !ran) then fail "check %s never ran" c)
    Catalog.checks;
  Printf.printf "smoke: %d workloads, %d end-to-end and %d per-layer metrics, checks %s\n"
    (List.length Workload.all) (List.length e2e) (List.length layers)
    (String.concat " " Catalog.checks)
