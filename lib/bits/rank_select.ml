(* Static rank/select directory over an (immutable from here on) Bitvec.

   Layout: superblocks of [sb_words] words; [super.(k)] is the number of
   1-bits strictly before superblock [k].  rank scans at most [sb_words]
   words; select binary-searches superblocks then scans.

   Every entry point checks its argument once, then reads the raw word
   array [words] (the bit vector's own storage, not a copy) without
   further bounds checks. *)

(* [Popcount.word_bits] as a literal, so that [i / w] and [i mod w]
   compile to multiply-shift sequences even where other modules'
   constants are not visible to the compiler (-opaque builds). *)
let w = 62
let () = assert (w = Popcount.word_bits)
let sb_words = 8
let sb_bits = sb_words * w

type t = {
  bv : Bitvec.t;
  words : int array; (* = the backing array of [bv] *)
  len : int;
  super : int array;
  ones : int;
}

let build bv =
  let words = Bitvec.unsafe_words bv in
  let nw = Array.length words in
  let nsb = (nw + sb_words - 1) / sb_words in
  let super = Array.make (nsb + 1) 0 in
  let acc = ref 0 in
  for j = 0 to nw - 1 do
    if j mod sb_words = 0 then super.(j / sb_words) <- !acc;
    acc := !acc + Popcount.count words.(j)
  done;
  super.(nsb) <- !acc;
  { bv; words; len = Bitvec.length bv; super; ones = !acc }

let of_bitvec = build
let length t = t.len
let ones t = t.ones
let zeros t = t.len - t.ones
let bitvec t = t.bv

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Rank_select.get";
  (Array.unsafe_get t.words (i / w) lsr (i mod w)) land 1 = 1

(* Number of 1-bits in positions [0, i).  When [i] is a multiple of [w]
   the partial word is empty and is not read, so [i = length] never
   touches a word past the end. *)
let rank1 t i =
  if i < 0 || i > t.len then invalid_arg "Rank_select.rank1";
  let word = i / w in
  let sb = word / sb_words in
  Array.unsafe_get t.super sb + Popcount.count_prefix t.words (sb * sb_words) word (i - (word * w))

let rank0 t i = i - rank1 t i

(* Bit [i] and [rank1 t i] from one directory probe, packed as
   [(rank lsl 1) lor bit] so the result needs no allocation. *)
let access_rank t i =
  if i < 0 || i >= t.len then invalid_arg "Rank_select.access_rank";
  let word = i / w in
  let sb = word / sb_words in
  let rem = i - (word * w) in
  let r = Array.unsafe_get t.super sb + Popcount.count_prefix t.words (sb * sb_words) word rem in
  (r lsl 1) lor ((Array.unsafe_get t.words word lsr rem) land 1)

(* Position of the [k]-th (0-based) 1-bit.  Requires [0 <= k < ones]. *)
let select1 t k =
  if k < 0 || k >= t.ones then invalid_arg "Rank_select.select1";
  (* binary search: largest sb with super.(sb) <= k *)
  let lo = ref 0 and hi = ref (Array.length t.super - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.super.(mid) <= k then lo := mid else hi := mid
  done;
  let sb = !lo in
  let acc = ref t.super.(sb) in
  let nw = Array.length t.words in
  let j = ref (sb * sb_words) in
  let rec find () =
    let c = Popcount.count t.words.(!j) in
    if !acc + c > k then ()
    else begin
      acc := !acc + c;
      incr j;
      if !j >= nw then invalid_arg "Rank_select.select1: corrupt directory";
      find ()
    end
  in
  find ();
  (!j * w) + Popcount.select t.words.(!j) (k - !acc)

(* Position of the [k]-th (0-based) 0-bit. *)
let select0 t k =
  let nzeros = zeros t in
  if k < 0 || k >= nzeros then invalid_arg "Rank_select.select0";
  let zeros_before_sb sb =
    let bits = min (sb * sb_bits) t.len in
    bits - t.super.(sb)
  in
  let lo = ref 0 and hi = ref (Array.length t.super - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if zeros_before_sb mid <= k then lo := mid else hi := mid
  done;
  let sb = !lo in
  let acc = ref (zeros_before_sb sb) in
  let nw = Array.length t.words in
  let j = ref (sb * sb_words) in
  let word_zeros j =
    let mask = Bitvec.word_mask t.bv j in
    Popcount.count (mask land lnot t.words.(j))
  in
  let rec find () =
    let c = word_zeros !j in
    if !acc + c > k then ()
    else begin
      acc := !acc + c;
      incr j;
      if !j >= nw then invalid_arg "Rank_select.select0: corrupt directory";
      find ()
    end
  in
  find ();
  let inv = Bitvec.word_mask t.bv !j land lnot t.words.(!j) in
  (!j * w) + Popcount.select inv (k - !acc)

let space_bits t =
  Bitvec.space_bits t.bv + (Array.length t.super * 63) + (2 * 63)
