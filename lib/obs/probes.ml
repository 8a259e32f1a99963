(* Per-server time-series probes.  Server count is not known when the sink
   is created (the sink predates the cluster), so the per-server store
   grows by doubling on first touch of a new id. *)

type sample = {
  p_time : float;
  p_load : float;
  p_queue : int;
  p_replicas : int;
  p_hit_rate : float;
}

type t = {
  mutable series : sample list array;  (* per server id, newest first *)
  mutable samples : int;
}

let create () = { series = Array.make 0 []; samples = 0 }

let ensure t server =
  if server >= Array.length t.series then begin
    let n = max 16 (max (server + 1) (2 * Array.length t.series)) in
    let grown = Array.make n [] in
    Array.blit t.series 0 grown 0 (Array.length t.series);
    t.series <- grown
  end

let add t ~server sample =
  if server < 0 then invalid_arg "Probes.add: negative server id";
  ensure t server;
  t.series.(server) <- sample :: t.series.(server);
  t.samples <- t.samples + 1

let samples t = t.samples

let series t server =
  if server < 0 || server >= Array.length t.series then []
  else List.rev t.series.(server)

let iter t f =
  for server = 0 to Array.length t.series - 1 do
    List.iter (fun s -> f ~server s) (List.rev t.series.(server))
  done
