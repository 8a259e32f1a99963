(** Bloom filters — the paper's inverse-mapping digests (§3.6).

    Each TerraDir server summarizes the set of node names it hosts as a Bloom
    filter [Bloom 1970].  The only query is membership with one-sided error:
    [mem] may return [true] for an element never added (false positive) but
    never returns [false] for an added element.

    Hashing uses the Kirsch–Mitzenmacher double-hashing scheme: two 64-bit
    hashes [h1], [h2] derived from a SplitMix64 finalizer, probing positions
    [h1 + i*h2 mod m] for [i < k].  Elements are arbitrary integers (TerraDir
    hashes interned node identifiers; hashing the name string would be
    equivalent since the namespace is shared by all servers). *)

type t

val create : ?bits_per_element:int -> ?hashes:int -> expected:int -> unit -> t
(** [create ~expected ()] sizes the filter for [expected] insertions at
    [bits_per_element] bits each (default 10, k defaults to 7 ≈ ln 2 · 10,
    giving ≈1% false-positive rate at capacity).  The filter is one flat
    byte block: a header holding m and k, then the m bits.
    @raise Invalid_argument on non-positive parameters or [hashes > 65535]. *)

val add : t -> int -> unit

val mem : t -> int -> bool

val hash_into : int array -> int -> int -> unit
(** [hash_into dst i x] stores [x]'s hash pair [(h1, h2)] at [dst.(2i)] and
    [dst.(2i+1)] — unboxed, so loops that test several elements against
    several filters hash each element once and allocate nothing. *)

val mem_hashed : t -> int -> int -> bool
(** [mem_hashed t h1 h2 = mem t x] for the pair {!hash_into} stored for [x]. *)

val cardinality_estimate : t -> float
(** Maximum-likelihood estimate of the number of distinct insertions, from
    the fill fraction: [-m/k · ln(1 - X/m)]. *)

val fill_ratio : t -> float
(** Fraction of bits set, in [0, 1]. *)

val false_positive_rate : t -> float
(** Expected false-positive probability at the current fill: [fill^k]. *)

val reset : t -> unit

val copy : t -> t

val equal : t -> t -> bool

val num_bits : t -> int

val of_list : ?bits_per_element:int -> ?hashes:int -> int list -> t
(** Filter sized for and containing the given elements (empty list gets a
    minimal 64-bit filter). *)

val of_iter : ?bits_per_element:int -> ?hashes:int -> expected:int -> ((int -> unit) -> unit) -> t
(** [of_iter ~expected iter]: like {!of_list} over the elements [iter]
    produces, without materializing a list.  [expected] sizes the filter
    exactly as [of_list] would for a list of that length (clamped to ≥ 1);
    bit-set contents are iteration-order independent. *)
