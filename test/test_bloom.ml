(* Tests for the Bloom-filter digests (§3.6's inverse-mapping digests). *)

open Terradir_bloom

let test_no_false_negatives () =
  let b = Bloom.create ~expected:100 () in
  let elements = List.init 100 (fun i -> (i * 7919) + 3) in
  List.iter (Bloom.add b) elements;
  List.iter
    (fun x -> Alcotest.(check bool) (Printf.sprintf "mem %d" x) true (Bloom.mem b x))
    elements

let test_empty_filter_rejects () =
  let b = Bloom.create ~expected:10 () in
  for x = 0 to 100 do
    Alcotest.(check bool) "empty has no members" false (Bloom.mem b x)
  done

let test_false_positive_rate () =
  let n = 1000 in
  let b = Bloom.create ~expected:n () in
  for i = 0 to n - 1 do
    Bloom.add b i
  done;
  (* Probe values far outside the inserted range. *)
  let false_positives = ref 0 in
  let probes = 20_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (1_000_000 + (i * 13)) then incr false_positives
  done;
  let rate = float_of_int !false_positives /. float_of_int probes in
  (* 10 bits/element, 7 hashes → ~1%; allow generous slack. *)
  Alcotest.(check bool) (Printf.sprintf "fp rate %.4f < 0.03" rate) true (rate < 0.03)

let test_bigger_filter_fewer_fps () =
  let n = 500 in
  let small = Bloom.create ~bits_per_element:4 ~hashes:3 ~expected:n () in
  let large = Bloom.create ~bits_per_element:16 ~hashes:10 ~expected:n () in
  for i = 0 to n - 1 do
    Bloom.add small i;
    Bloom.add large i
  done;
  let false_positives b =
    List.length (List.filter (Bloom.mem b) (List.init 20_000 (fun i -> 1_000_000 + (i * 13))))
  in
  Alcotest.(check bool) "measured fp ordering" true
    (false_positives large < false_positives small)

let test_mem_hashed_agrees () =
  let b = Bloom.create ~expected:50 () in
  List.iter (Bloom.add b) (List.init 50 (fun i -> i * 3));
  let hashes = Array.make 4 0 in
  for x = 0 to 300 do
    Bloom.hash_into hashes (x land 1) x;
    Alcotest.(check bool)
      (Printf.sprintf "mem_hashed %d" x)
      (Bloom.mem b x)
      (Bloom.mem_hashed b hashes.(2 * (x land 1)) hashes.((2 * (x land 1)) + 1))
  done

(* Which values a digest answers "yes" for is part of every recorded
   trajectory (a false positive can redirect a query), so membership is
   pinned against the Kirsch–Mitzenmacher scheme written out
   independently: SplitMix64 finalizer hashes, bit [(h1 + i*h2) mod m] for
   [i < k] in wrapping native-int arithmetic.  Small, dense filters make
   most probe values false positives, each depending on k positions. *)
let reference_bits ~m ~k elements =
  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let positions x =
    let r = mix (Int64.of_int x) in
    let h1 = Int64.to_int (Int64.shift_right_logical r 2) in
    let h2 = Int64.to_int (Int64.shift_right_logical (mix (Int64.add r 0x9E3779B97F4A7C15L)) 2) lor 1 in
    List.init k (fun i ->
        let p = (h1 + (i * h2)) mod m in
        if p < 0 then p + m else p)
  in
  let bits = Array.make m false in
  List.iter (fun x -> List.iter (fun p -> bits.(p) <- true) (positions x)) elements;
  fun x -> List.for_all (fun p -> bits.(p)) (positions x)

let test_membership_pinned () =
  List.iter
    (fun (bits_per_element, hashes, elements) ->
      let b = Bloom.of_list ~bits_per_element ~hashes elements in
      let m = Bloom.num_bits b in
      let reference = reference_bits ~m ~k:hashes elements in
      for x = 0 to 5000 do
        if Bloom.mem b x <> reference x then Alcotest.failf "m=%d k=%d: membership of %d differs" m hashes x
      done)
    [
      (3, 2, List.init 40 (fun i -> (i * 37) + 1));
      (10, 7, List.init 9 (fun i -> i * 1009));
      (16, 10, List.init 24 (fun i -> i * 17));
    ]

let test_of_list () =
  let b = Bloom.of_list [ 5; 10; 15 ] in
  List.iter (fun x -> Alcotest.(check bool) "member" true (Bloom.mem b x)) [ 5; 10; 15 ];
  let empty = Bloom.of_list [] in
  Alcotest.(check bool) "empty list filter works" false (Bloom.mem empty 5);
  Alcotest.(check bool) "minimal size" true (Bloom.num_bits empty >= 64)

let test_create_validation () =
  Alcotest.check_raises "zero expected"
    (Invalid_argument "Bloom.create: expected must be positive") (fun () ->
      ignore (Bloom.create ~expected:0 ()));
  Alcotest.check_raises "zero hashes"
    (Invalid_argument "Bloom.create: hashes must be positive") (fun () ->
      ignore (Bloom.create ~hashes:0 ~expected:1 ()))

let prop_no_false_negatives =
  QCheck.Test.make ~name:"bloom: added elements are always members" ~count:300
    QCheck.(small_list int)
    (fun elements ->
      let b = Bloom.of_list elements in
      List.for_all (Bloom.mem b) elements)

let prop_union_semantics_via_adds =
  QCheck.Test.make ~name:"bloom: membership is monotone under adds" ~count:200
    QCheck.(pair (small_list (int_bound 1000)) (small_list (int_bound 1000)))
    (fun (xs, ys) ->
      let b = Bloom.create ~expected:(max 1 (List.length xs + List.length ys)) () in
      List.iter (Bloom.add b) xs;
      let members_before = List.filter (Bloom.mem b) (xs @ ys) in
      List.iter (Bloom.add b) ys;
      List.for_all (Bloom.mem b) members_before)

let () =
  Alcotest.run "terradir_bloom"
    [
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick test_no_false_negatives;
          Alcotest.test_case "empty rejects" `Quick test_empty_filter_rejects;
          Alcotest.test_case "false positive rate" `Quick test_false_positive_rate;
          Alcotest.test_case "sizing reduces fps" `Quick test_bigger_filter_fewer_fps;
          Alcotest.test_case "mem_hashed" `Quick test_mem_hashed_agrees;
          Alcotest.test_case "membership = reference hashing" `Quick test_membership_pinned;
          Alcotest.test_case "of_list" `Quick test_of_list;
          Alcotest.test_case "validation" `Quick test_create_validation;
        ] );
      ( "bloom-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_no_false_negatives; prop_union_semantics_via_adds ] );
    ]
