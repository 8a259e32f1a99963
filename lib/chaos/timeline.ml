type t = (float * Action.t) list

let make entries =
  List.iter
    (fun (at, _) ->
      if Float.is_nan at || at < 0.0 || not (Float.is_finite at) then
        invalid_arg "Timeline.make: action times must be finite and non-negative")
    entries;
  (* Stable: same-time actions keep their declaration order, which is the
     order Chaos.run schedules (and hence applies) them in. *)
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) entries

let entries t = t

let first_time = function [] -> None | (at, _) :: _ -> Some at
