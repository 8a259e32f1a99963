let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* Persistent worker gang: [map] below spawns fresh domains per call,
   which is fine for a handful of multi-second experiment cells but far
   too heavy for the parallel engine's synchronized windows (thousands
   per simulated second).  A [Gang.t] parks its domains on a condition
   variable between jobs, so a launch/join round trip costs two lock
   acquisitions per worker instead of a domain spawn. *)
module Gang = struct
  type t = {
    mutable domains : unit Domain.t array;
    m : Mutex.t;
    cv : Condition.t;
    mutable job : (int -> unit) option;
    mutable epoch : int; (* bumped per launch; workers wait for a fresh one *)
    mutable remaining : int;
    mutable stop : bool;
    mutable failure : (exn * Printexc.raw_backtrace) option;
  }

  let worker t i =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.m;
      while t.epoch = !seen && not t.stop do
        Condition.wait t.cv t.m
      done;
      if t.stop then begin
        running := false;
        Mutex.unlock t.m
      end
      else begin
        seen := t.epoch;
        let job = match t.job with Some f -> f | None -> assert false in
        Mutex.unlock t.m;
        (try job i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock t.m;
           if t.failure = None then t.failure <- Some (e, bt);
           Mutex.unlock t.m);
        Mutex.lock t.m;
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 then Condition.broadcast t.cv;
        Mutex.unlock t.m
      end
    done

  let create ~workers =
    if workers < 1 then invalid_arg "Pool.Gang.create: workers must be >= 1";
    let t =
      {
        domains = [||];
        m = Mutex.create ();
        cv = Condition.create ();
        job = None;
        epoch = 0;
        remaining = 0;
        stop = false;
        failure = None;
      }
    in
    t.domains <- Array.init workers (fun i -> Domain.spawn (fun () -> worker t i));
    t

  let launch t f =
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.Gang.launch: gang is shut down"
    end;
    if t.remaining > 0 then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.Gang.launch: previous job not joined"
    end;
    t.job <- Some f;
    t.remaining <- Array.length t.domains;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.m

  let join t =
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.cv t.m
    done;
    t.job <- None;
    let fail = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
    match fail with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let shutdown t =
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
end

(* Each slot is written exactly once, by whichever worker claimed its index;
   the claim goes through [next], so no index is ever written twice.  The
   caller reads the slots only after joining every worker, which publishes
   the writes (Domain.join is a synchronization point). *)
type 'b outcome =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let map ?domains f xs =
  (match domains with
  | Some d when d < 1 -> invalid_arg "Pool.map: domains must be >= 1"
  | _ -> ());
  let n = List.length xs in
  let k = min (match domains with Some d -> d | None -> recommended_jobs ()) n in
  if k <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let worker () =
      let rec loop () =
        if not (Atomic.get failed) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f input.(i) with
            | v -> results.(i) <- Done v
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              results.(i) <- Raised (e, bt);
              Atomic.set failed true);
            loop ()
          end
        end
      in
      loop ()
    in
    let workers = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is a worker too, so [domains] is a total. *)
    worker ();
    Array.iter Domain.join workers;
    Array.iter
      (function Raised (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
      results;
    Array.to_list
      (Array.map (function Done v -> v | Pending | Raised _ -> assert false) results)
  end
