(* Host-side readings the simulator cannot take about itself: wall clock,
   process CPU time and peak resident set.  None of them reaches
   simulation state — they bracket calls into the library from outside. *)

let wall () =
  (* lint: wall-clock host time brackets library calls; it never reaches simulation state *)
  Unix.gettimeofday ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, from /proc/self/status.  Linux only: without it
   the benchmark has no peak-memory metric, so a missing line is an
   error rather than a zero. *)
let peak_rss_mb () =
  let body = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  match
    List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' body)
  with
  | Some line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM line in /proc/self/status"
