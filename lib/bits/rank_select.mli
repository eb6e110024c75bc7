(** Static rank/select directory over a {!Bitvec.t}.

    A superblock count every 8 words gives [rank] from one directory
    probe plus a popcount of at most 8 words; [select] binary searches
    the directory. The underlying bit vector must not be
    mutated after {!build}. *)

type t

(** Build the directory; O(n/w) time, o(n) extra bits. *)
val build : Bitvec.t -> t

val of_bitvec : Bitvec.t -> t
val length : t -> int

(** Number of one bits. *)
val ones : t -> int

(** Number of zero bits. *)
val zeros : t -> int

val get : t -> int -> bool
val bitvec : t -> Bitvec.t

(** [rank1 t i] is the number of ones in positions [[0, i)]. *)
val rank1 : t -> int -> int

(** [rank0 t i] is the number of zeros in positions [[0, i)]. *)
val rank0 : t -> int -> int

(** [access_rank t i] is [(rank1 t i lsl 1) lor b] where [b] is bit
    [i] as 0 or 1: the bit and its rank from one probe, without
    allocating. Raises [Invalid_argument] unless [0 <= i < length t]. *)
val access_rank : t -> int -> int

(** [select1 t k] is the position of the [k]-th (0-based) one.
    Raises [Invalid_argument] if [k >= ones t]. *)
val select1 : t -> int -> int

(** [select0 t k] is the position of the [k]-th (0-based) zero. *)
val select0 : t -> int -> int

val space_bits : t -> int
