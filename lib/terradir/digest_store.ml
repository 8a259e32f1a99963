open Terradir_util
open Terradir_bloom

type remote = { bloom : Bloom.t; version : int }

type t = {
  mutable local : Bloom.t;
  mutable local_version : int;
  remotes : remote Lru.t;
  sent : (int, int) Hashtbl.t; (* peer -> last local version piggybacked *)
}

let create ~max_remote () =
  {
    local = Bloom.create ~expected:1 ();
    local_version = 0;
    remotes = Lru.create ~capacity:max_remote;
    sent = Hashtbl.create 64;
  }

let local_version t = t.local_version

let local t = t.local

(* Digests are consulted hundreds of times per routing step across many
   servers, so false positives compound: use 16 bits/element (k = 10,
   ~0.05% FP rate) rather than the Bloom default.

   The previous filter cannot be reset and refilled in place: [local] is
   published by reference in piggybacked digest messages, so servers that
   recorded it would see the mutation (and sizing must track the hosted
   count anyway). *)
let rebuild_local_from t ~count ~iter =
  t.local <- Bloom.of_iter ~bits_per_element:16 ~hashes:10 ~expected:count iter;
  t.local_version <- t.local_version + 1

let rebuild_local t ~hosted =
  rebuild_local_from t ~count:(List.length hosted) ~iter:(fun add -> List.iter add hosted)

let record_remote t ~server ~version bloom =
  match Lru.peek t.remotes server with
  | Some r when r.version >= version -> ()
  | Some _ | None -> Lru.put t.remotes server { bloom; version }

let remote_version t ~server = Option.map (fun r -> r.version) (Lru.peek t.remotes server)

let test_remote t ~server ~node =
  (* [find] rather than [peek]: a consulted digest is useful state, keep it
     warm in the LRU. *)
  Option.map (fun r -> Bloom.mem r.bloom node) (Lru.find t.remotes server)

let fold_remote_until t ~init ~f =
  Lru.fold_until t.remotes ~init ~f:(fun acc server r -> f acc server r.bloom)

let remote_count t = Lru.length t.remotes

let last_version_sent t ~peer = Option.value ~default:0 (Hashtbl.find_opt t.sent peer)

let note_version_sent t ~peer version = Hashtbl.replace t.sent peer version
