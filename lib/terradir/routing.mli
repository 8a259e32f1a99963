(** The minimizing routing procedure (§2.2, §3.6.1).

    A server routing a query for [dst] picks the closest node to [dst] it
    knows about — among hosted nodes, tree-neighbors of hosted nodes, and
    cached nodes — and forwards to one of the servers in that node's map.
    With inverse-mapping digests it may do better: a digest hit for a name
    even closer to [dst] (necessarily [dst] itself or one of its ancestors —
    see the lemma below) redirects the query to that server directly.

    {b Shortcut lemma.}  The paper (§3.6.1) tests every name inferable by
    prefix extraction from known names.  Testing only [dst] and its
    ancestors is lossless: let [k] be any known node and [a] an ancestor of
    [k].  If [a] is not an ancestor of [dst], then [a] lies strictly below
    [lca(k,dst)] on [k]'s branch, so [distance(a,dst) > distance(lca(k,dst),
    dst)] — and [lca(k,dst)] {e is} an ancestor of [dst].  Hence the best
    digest-testable name is always found on [dst]'s own ancestor chain. *)

open Types

type decision =
  | Resolve  (** the destination is hosted here *)
  | Forward of { via_node : node_id; to_server : server_id; shortcut : bool }
      (** forward on behalf of [via_node] to [to_server]; [shortcut] marks a
          digest-discovered hop *)
  | Dead_end  (** no usable forwarding candidate *)

val decide :
  ?shortcut_bound:int ->
  ?oracle:(node_id -> Node_map.t) ->
  Server.t ->
  dst:node_id ->
  decision
(** One routing step at this server.  Reads (and, for the chosen cache
    entry, touches) server state; never mutates maps or sends messages.
    [shortcut_bound] (default unlimited) caps the namespace distance a
    digest shortcut may target — callers pass the query's best distance so
    far, making shortcut chains strictly decreasing (two servers with
    false-positive digests for each other's region would otherwise bounce
    a query until its hop budget dies).

    [oracle], when given, substitutes ground-truth host maps for the
    server's own (possibly stale) maps when choosing the forwarding
    server, and disables digest shortcuts — §4.4's "routing with perfectly
    accurate information, as if given by an oracle" reference point.  The
    {e candidate} set is still the server's local knowledge: the oracle
    perfects accuracy, not awareness. *)

val digest_shortcut :
  Server.t -> dst:node_id -> better_than:int -> (node_id * server_id * int) option
(** The §3.6.1 shortcut search {!decide} runs: [Some (node, server, dist)]
    for the nearest of [dst] and its ancestors — fewer than
    [min better_than 6] steps up — that one of the
    {!Server.max_digests_consulted} most recently refreshed remote digests
    (this server's own excluded) claims, ties going to the more recent
    digest; [None] without a hit or with the digest feature off.  Exposed
    for its equivalence test. *)
