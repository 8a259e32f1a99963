(* Interned (hash-consed) names.

   A name is a dense integer id into a process-global intern table; the
   root is id 0 and every other id records (parent id, last component,
   depth).  Two structurally equal names always intern to the same id, so
   equality is one int comparison and hashing is the identity — the string
   form is materialized only on demand ([to_string]).

   Ids are assigned in interning order, which depends on construction
   order (and, under multi-domain experiment fan-out, on scheduling).
   Nothing may therefore *order* on ids or persist them: [compare] stays
   lexicographic over components, exactly the pre-interning semantics, and
   the qcheck equivalence suite in test/test_interning.ml holds every
   operation to the old string-list reference implementation.

   Concurrency: interning happens under [lock]; readers go through an
   immutable snapshot published via [Atomic].  Slots below a snapshot's
   [count] are frozen (written before the snapshot was published), so
   lock-free reads of any id obtained from a completed intern are safe. *)

type t = int

let root = 0

type table = {
  parents : int array; (* id -> parent id; root -> -1 *)
  components : string array; (* id -> last component; "" for root *)
  depths : int array;
  count : int;
}

let published =
  Atomic.make { parents = [| -1 |]; components = [| "" |]; depths = [| 0 |]; count = 1 }

let lock = Mutex.create ()

(* (parent id, component) -> id: open addressing over a power-of-two int
   array kept at most half full, -1 marking an empty slot.  A slot holds
   only the id; its key is read back from the published [parents] and
   [components].  Only touched under [lock]. *)
let child_ids = ref (Array.make 1024 (-1))

let interned_count () = (Atomic.get published).count

let check_component c =
  if c = "" then invalid_arg "Name: empty component";
  if String.contains c '/' then invalid_arg "Name: component contains '/'"

(* The slot of [ids] holding (parent, c)'s id, else the empty slot where
   it belongs: linear probing from the key's hash. *)
let probe tbl ids parent c =
  let mask = Array.length ids - 1 in
  let rec go i =
    let id = ids.(i) in
    if id < 0 || (tbl.parents.(id) = parent && String.equal tbl.components.(id) c) then i
    else go ((i + 1) land mask)
  in
  go ((Hashtbl.hash c + (parent * 65599)) land mask)

(* Must be called with [lock] held. *)
let intern_child parent c =
  let tbl = Atomic.get published in
  let slot = probe tbl !child_ids parent c in
  if !child_ids.(slot) >= 0 then !child_ids.(slot)
  else begin
    let id = tbl.count and capacity = Array.length tbl.parents in
    let grow a fill = if id < capacity then a else Array.append a (Array.make capacity fill) in
    let tbl =
      {
        parents = grow tbl.parents (-1);
        components = grow tbl.components "";
        depths = grow tbl.depths 0;
        count = id + 1;
      }
    in
    (* Write the slot, then publish: a reader can only hold id [n] after
       the intern that produced it returned, which ordered these writes
       before the [Atomic.set] it observed. *)
    tbl.parents.(id) <- parent;
    tbl.components.(id) <- c;
    tbl.depths.(id) <- tbl.depths.(parent) + 1;
    Atomic.set published tbl;
    !child_ids.(slot) <- id;
    if 2 * tbl.count > Array.length !child_ids then begin
      let ids = Array.make (2 * Array.length !child_ids) (-1) in
      for v = 1 to id do
        ids.(probe tbl ids tbl.parents.(v) tbl.components.(v)) <- v
      done;
      child_ids := ids
    end;
    id
  end

let of_components cs =
  List.iter check_component cs;
  Mutex.protect lock (fun () -> List.fold_left intern_child root cs)

let of_string s = of_components (List.filter (fun c -> c <> "") (String.split_on_char '/' s))

let child t c =
  check_component c;
  Mutex.protect lock (fun () -> intern_child t c)

let id t = t

let hash t = t

let equal (a : t) (b : t) = a = b

let depth t = (Atomic.get published).depths.(t)

let parent t = if t = root then None else Some (Atomic.get published).parents.(t)

let basename t = if t = root then None else Some (Atomic.get published).components.(t)

let components t =
  let tbl = Atomic.get published in
  let rec go acc v = if v = root then acc else go (tbl.components.(v) :: acc) tbl.parents.(v) in
  go [] t

let to_string t =
  if t = root then "/"
  else begin
    let tbl = Atomic.get published in
    let rec len acc v =
      if v = root then acc else len (acc + 1 + String.length tbl.components.(v)) tbl.parents.(v)
    in
    let buf = Buffer.create (len 0 t) in
    let rec emit v =
      if v <> root then begin
        emit tbl.parents.(v);
        Buffer.add_char buf '/';
        Buffer.add_string buf tbl.components.(v)
      end
    in
    emit t;
    Buffer.contents buf
  end

(* Lexicographic over components, root-first — identical to the historical
   string-list representation's [List.compare String.compare]. *)
let compare a b = List.compare String.compare (components a) (components b)

let rec lift tbl v target_depth =
  if tbl.depths.(v) > target_depth then lift tbl tbl.parents.(v) target_depth else v

let is_ancestor a b =
  let tbl = Atomic.get published in
  tbl.depths.(a) <= tbl.depths.(b) && lift tbl b tbl.depths.(a) = a

let ancestors t =
  let tbl = Atomic.get published in
  (* Walk up through parents: nearest ancestor first, root last. *)
  let rec go acc v = if v = root then List.rev acc else go (tbl.parents.(v) :: acc) tbl.parents.(v) in
  go [] t

let lowest_common_ancestor a b =
  let tbl = Atomic.get published in
  let d = min tbl.depths.(a) tbl.depths.(b) in
  let a = lift tbl a d and b = lift tbl b d in
  let rec go a b = if a = b then a else go tbl.parents.(a) tbl.parents.(b) in
  go a b

let distance a b =
  let tbl = Atomic.get published in
  let l = lowest_common_ancestor a b in
  tbl.depths.(a) + tbl.depths.(b) - (2 * tbl.depths.(l))

let pp fmt t = Format.pp_print_string fmt (to_string t)
