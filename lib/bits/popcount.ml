(* Population count and in-word select for OCaml native integers.

   All bit-packed structures in this library store [word_bits] = 62 bits
   per native [int] word (see below).  Counting is a SWAR (SIMD within a
   register) sum with no table; it is exact on all 63 bits of an [int],
   so negative arguments count their sign bit too.  In-word select skips
   whole bytes using the same SWAR byte counts, then does one lookup in
   a 2 KiB byte-select table. *)

let word_bits = 62

(* 63-bit masks: 0x55.. (bit pairs), 0x33.. (nibble halves), 0x0f..
   (byte halves) and 0x01.. (one per byte).  The first literal wraps to
   a negative [int]; only its bit pattern matters. *)
let m1 = 0x5555555555555555
let m2 = 0x3333333333333333
let m4 = 0x0f0f0f0f0f0f0f0f
let h01 = 0x0101010101010101

(* Per-byte population counts of [x], one count in each byte. *)
let[@inline] byte_counts x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  (x + (x lsr 4)) land m4

(* The top byte of [c * h01] sums all bytes of [c]; an [int] has 7 bits
   there, enough for any count up to 63. *)
let[@inline] count x = (byte_counts x * h01) lsr 56

(* 1-bits in [words.(j0 .. j1-1)] plus the [rem] low bits of
   [words.(j1)] (not read when [rem = 0]); unchecked, callers check.
   The rank scan of Rank_select, kept here so [count] inlines into it:
   builds with -opaque (dune's dev profile) cannot inline across
   modules, and a call per word doubled the cost of a rank. *)
let count_prefix words j0 j1 rem =
  let acc = ref 0 in
  for j = j0 to j1 - 1 do
    acc := !acc + count (Array.unsafe_get words j)
  done;
  if rem = 0 then !acc
  else !acc + count (Array.unsafe_get words j1 land ((1 lsl rem) - 1))

(* select_table.[b * 8 + k] = position of the [k]-th set bit of byte [b]
   (only meaningful for [k < popcount b]). *)
let select_table =
  let t = Bytes.make 2048 '\000' in
  for b = 0 to 255 do
    let k = ref 0 in
    for p = 0 to 7 do
      if (b lsr p) land 1 = 1 then begin
        Bytes.unsafe_set t ((b * 8) + !k) (Char.unsafe_chr p);
        incr k
      end
    done
  done;
  t

(* Position (0-based, from LSB) of the [k]-th (0-based) set bit of [x].
   Requires [0 <= k < count x].  Byte [i] of [cum] is the number of set
   bits in bytes [0 .. i] of [x]; skip bytes while that is [<= k]. *)
let select x k =
  let cum = byte_counts x * h01 in
  let sh = ref 0 in
  while (cum lsr !sh) land 0xff <= k do
    sh := !sh + 8
  done;
  let before = if !sh = 0 then 0 else (cum lsr (!sh - 8)) land 0xff in
  let byte = (x lsr !sh) land 0xff in
  !sh + Char.code (Bytes.unsafe_get select_table ((byte * 8) + k - before))

(* Mask keeping the [n] lowest bits, 0 <= n <= 62.  Note (1 lsl 62) - 1
   wraps to max_int, which is exactly the 62-bit mask. *)
let[@inline] low_mask n = (1 lsl n) - 1
