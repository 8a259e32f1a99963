(** Namespace generators for the paper's two evaluation namespaces and for
    tests.

    - {!balanced} builds the synthetic namespace [N_S]: a perfectly balanced
      k-ary tree (the paper uses arity 2 with levels 0..14, i.e. 32767
      nodes).
    - {!coda_like} substitutes for the paper's Coda-server trace namespace
      [N_C] ("barber", one month of January 1993, ~40k nodes): the original
      trace is not redistributable, so we generate a filesystem-shaped tree
      with heavy-tailed fan-out and deep, thin directory chains from a seed.
    - {!of_paths} builds a namespace from an explicit path listing (handy
      for tests and for loading real listings). *)

val balanced : arity:int -> levels:int -> Tree.t
(** Perfectly balanced [arity]-ary tree with levels [0..levels] (the root is
    level 0), i.e. [(arity^(levels+1)-1)/(arity-1)] nodes for arity ≥ 2.
    Children of a node are named ["0"], ["1"], ….
    @raise Invalid_argument if [arity < 1] or [levels < 0]. *)

val balanced_node_count : arity:int -> levels:int -> int
(** Number of nodes {!balanced} will produce. *)

val log2i : int -> int
(** [floor (log2 n)] for [n >= 1]; 0 for smaller [n]. *)

val balanced_for : servers:int -> Tree.t
(** The binary {!balanced} namespace a deployment of [servers] servers
    runs on: about 8 nodes per server, and never fewer than levels 0..3.
    The experiments' [N_S], the capacity run, the chaos campaigns and
    the profiler all build this shape. *)

val coda_like : ?seed:int -> target:int -> unit -> Tree.t
(** Filesystem-shaped namespace of approximately [target] nodes (always
    within 1%, typically exact).  Deterministic in [seed] (default 1993,
    the trace year).  Shape properties (asserted by tests): irregular
    fan-out with a heavy tail, maximum depth ≥ 8 for targets ≥ 10k,
    a majority of leaf ("file") nodes — matching published file-system
    namespace statistics.
    @raise Invalid_argument if [target < 1]. *)

val of_paths : string list -> Tree.t
(** Build a tree containing every listed path, creating intermediate
    components as needed.  Duplicates are fine. *)

val describe : Tree.t -> string
(** One-line shape summary: nodes, max depth, mean/max fan-out, leaf share. *)
