open Terradir_util
open Terradir_bloom

type t = {
  mutable local : Bloom.t;
  mutable shared : Bloom.t option; (* [Some local], built with it: one box per filter *)
  mutable local_version : int;
  mutable pending_count : int; (* -1: [local] is current; else the next read builds it *)
  mutable pending_iter : (int -> unit) -> unit;
  remotes : Bloom.t Lru.t; (* server -> its digest, with the digest's version as the int *)
  sent : Packed_table.t; (* peer -> last local version piggybacked, one int each *)
}

let create ~max_remote () =
  let local = Bloom.create ~expected:1 () in
  {
    local;
    shared = Some local;
    local_version = 0;
    pending_count = -1;
    pending_iter = ignore;
    remotes = Lru.create ~ints:true ~capacity:max_remote ();
    sent = Packed_table.create ();
  }

let local_version t = t.local_version

(* Digests are consulted hundreds of times per routing step across many
   servers, so false positives compound: use 16 bits/element (k = 10,
   ~0.05% FP rate) rather than the Bloom default.

   The previous filter cannot be reset and refilled in place: [local] is
   published by reference in piggybacked digest messages, so servers that
   recorded it would see the mutation (and sizing must track the hosted
   count anyway). *)
let local t =
  if t.pending_count >= 0 then begin
    let local = Bloom.of_iter ~bits_per_element:16 ~hashes:10 ~expected:t.pending_count t.pending_iter in
    t.local <- local;
    t.shared <- Some local;
    t.pending_count <- -1;
    t.pending_iter <- ignore
  end;
  t.local

(* Every piggyback carries this one box, so a send allocates no option
   of its own; boxes made per send were young objects written into pooled
   messages in the major heap, each promoted by the next minor collection
   if the message was still in flight. *)
let shared_local t =
  ignore (local t : Bloom.t);
  t.shared

(* The version moves at once, so numbering is the eager rebuild's; the
   filter waits for its first read.  Set-up adds every owned node one at a
   time, and building a filter per add was a quarter of set-up.  Every
   change of the hosted set calls this again, so [iter] still produces the
   set it was given for when the read comes. *)
let rebuild_local_from t ~count ~iter =
  t.pending_count <- count;
  t.pending_iter <- iter;
  t.local_version <- t.local_version + 1;
  (* [sent] packs versions into [Packed_table.payload_bits] bits. *)
  assert (t.local_version lsr Packed_table.payload_bits = 0)

let rebuild_local t ~hosted =
  rebuild_local_from t ~count:(List.length hosted) ~iter:(fun add -> List.iter add hosted)

(* Versions are the LRU's int column, so the LRU holds the Blooms
   themselves and the routing shortcut reaches a digest without a record
   in between.  A [put] makes its key the most recent: [first] is its slot
   (or [-1] at capacity 0). *)
let record_remote t ~server ~version bloom =
  let slot = Lru.slot t.remotes server in
  if slot < 0 || Lru.int_at t.remotes slot < version then begin
    Lru.put t.remotes server bloom;
    match Lru.first t.remotes with -1 -> () | slot -> Lru.set_int_at t.remotes slot version
  end

let remote_version t ~server =
  match Lru.slot t.remotes server with -1 -> None | slot -> Some (Lru.int_at t.remotes slot)

let test_remote t ~server ~node =
  (* [find] rather than [peek]: a consulted digest is useful state, keep it
     warm in the LRU. *)
  match Lru.find t.remotes server with Some bloom -> Some (Bloom.mem bloom node) | None -> None

let collect_mru t ~skip ~servers ~blooms =
  let cap = Array.length servers in
  let slot = ref (Lru.first t.remotes) and n = ref 0 in
  while !slot >= 0 && !n < cap do
    let server = Lru.key_at t.remotes !slot in
    if server <> skip then begin
      servers.(!n) <- server;
      blooms.(!n) <- Lru.value_at t.remotes !slot;
      incr n
    end;
    slot := Lru.next t.remotes !slot
  done;
  !n

let remote_count t = Lru.length t.remotes

let held_local t = t.local

let remotes t = t.remotes

let last_version_sent t ~peer =
  match Packed_table.find t.sent peer with -1 -> 0 | i -> Packed_table.payload_at t.sent i

let note_version_sent t ~peer version =
  match Packed_table.find t.sent peer with
  | -1 -> ignore (Packed_table.add t.sent peer version : int)
  | i -> Packed_table.set_payload_at t.sent i version
