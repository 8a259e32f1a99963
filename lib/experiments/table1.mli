(** Table 1: server–node relationships and the state kept for each.

    The table itself is a design artifact; here we re-derive it from the
    live implementation: build a small cluster, induce replication and
    caching through traffic, and check that a server holding each
    relationship kind actually maintains exactly the state the table
    claims. *)

type result = { kinds_seen : string list; verified : bool }

val run : ?scale:float -> ?seed:int -> unit -> result

val tables : result -> Terradir_util.Tablefmt.table list
(** [table1_state] (the canonical state matrix) and [table1_verified]
    (the kinds seen in the live cluster, and [verified]). *)
