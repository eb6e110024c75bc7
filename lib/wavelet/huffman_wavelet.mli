(** Huffman-shaped wavelet tree: total bit-vector length n (H0 + 1), the
    zero-order compressed sequence representation backing the FM-index
    BWT and the binary-relation string S (Section 5). Same interface as
    {!Wavelet_tree} with per-operation cost proportional to the symbol's
    code length. *)

type t

val build : ?tick:(unit -> unit) -> sigma:int -> int array -> t
val length : t -> int
val sigma : t -> int
val access : t -> int -> int

(** Bits of the largest symbol, [sigma - 1]: the shift of {!access_rank}'s
    packed result. *)
val symbol_bits : t -> int

(** [access_rank t i] is [(rank t c i lsl symbol_bits t) lor c] where
    [c = access t i]: the symbol at [i] and its rank before [i] from one
    descent, without allocating. Raises [Invalid_argument] unless
    [0 <= i < length t]. *)
val access_rank : t -> int -> int

(** [rank t c i]: occurrences of [c] in [[0, i)]; 0 for symbols that do
    not occur in the sequence. *)
val rank : t -> int -> int -> int

(** [rank_pair t c i j] is [(rank t c i, rank t c j)] from one descent
    that maps both positions, and only one of them once no [c] lies
    between them. Raises
    [Invalid_argument] unless [0 <= i <= j <= length t]. *)
val rank_pair : t -> int -> int -> int -> int * int

(** Raises [Not_found] past the last occurrence (or for absent
    symbols). *)
val select : t -> int -> int -> int

val rank_range : t -> int -> int -> int -> int
val count : t -> int -> int
val space_bits : t -> int
val to_array : t -> int array
