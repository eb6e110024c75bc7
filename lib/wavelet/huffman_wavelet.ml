(* Huffman-shaped wavelet tree: a wavelet tree whose shape follows the
   Huffman code of the sequence, so total bit-vector length is
   n (H0 + 1) + o(..) bits.  This is the zero-order compressed sequence
   representation backing the string S of binary relations (Section 5) and
   the BWT of the FM-index. *)

open Dsdg_bits

type node =
  | Leaf of int
  | Node of {
      bv : Rank_select.t;
      left : node;
      right : node;
    }

type t = {
  root : node option; (* None iff the sequence is empty *)
  len : int;
  sigma : int;
  sym_bits : int; (* bits of the largest symbol, for [access_rank] *)
  codes : Huffman.code array;
}

let length t = t.len
let sigma t = t.sigma
let symbol_bits t = t.sym_bits

let rec build_node (seq : int array) (codes : Huffman.code array) depth tick =
  let n = Array.length seq in
  (* all symbols in [seq] share the same code prefix of length [depth] *)
  let c0 = seq.(0) in
  if codes.(c0).len = depth then Leaf c0
  else begin
    let bit_of c =
      let code = codes.(c) in
      (code.Huffman.bits lsr (code.Huffman.len - 1 - depth)) land 1
    in
    let bv = Bitvec.create n in
    let nleft = ref 0 in
    for i = 0 to n - 1 do
      tick ();
      if bit_of seq.(i) = 1 then Bitvec.set bv i else incr nleft
    done;
    let left_seq = Array.make (max 1 !nleft) 0 in
    let right_seq = Array.make (max 1 (n - !nleft)) 0 in
    let li = ref 0 and ri = ref 0 in
    for i = 0 to n - 1 do
      if bit_of seq.(i) = 1 then begin
        right_seq.(!ri) <- seq.(i);
        incr ri
      end
      else begin
        left_seq.(!li) <- seq.(i);
        incr li
      end
    done;
    (* A Huffman tree has no unary nodes, so both sides are non-empty --
       except for the degenerate single-symbol alphabet where the code is
       Branch(Sym c, Sym c) and one side may be empty.  Guard for that. *)
    let left =
      if !li = 0 then Leaf c0
      else build_node (Array.sub left_seq 0 !li) codes (depth + 1) tick
    in
    let right =
      if !ri = 0 then Leaf c0
      else build_node (Array.sub right_seq 0 !ri) codes (depth + 1) tick
    in
    Node { bv = Rank_select.build bv; left; right }
  end

let build ?(tick = fun () -> ()) ~sigma (seq : int array) =
  Array.iter
    (fun c -> if c < 0 || c >= sigma then invalid_arg "Huffman_wavelet.build: symbol out of range")
    seq;
  let freqs = Array.make sigma 0 in
  Array.iter (fun c -> freqs.(c) <- freqs.(c) + 1) seq;
  let codes = Huffman.codes ~sigma freqs in
  let root = if Array.length seq = 0 then None else Some (build_node seq codes 0 tick) in
  let rec bits_for x = if x = 0 then 0 else 1 + bits_for (x lsr 1) in
  { root; len = Array.length seq; sigma; sym_bits = bits_for (max 0 (sigma - 1)); codes }

(* Inverse select: one descent yields both the symbol [c] at [i] and the
   number of [c]s before [i].  At each node [Rank_select.access_rank]
   gives the routing bit and its rank from one probe; the position
   mapped into the child is the rank of that bit, so at the leaf it is
   [rank t c i]. *)
let access_rank t i =
  if i < 0 || i >= t.len then invalid_arg "Huffman_wavelet.access_rank";
  let rec go node i =
    match node with
    | Leaf c -> (i lsl t.sym_bits) lor c
    | Node { bv; left; right } ->
      let p = Rank_select.access_rank bv i in
      let r1 = p lsr 1 in
      if p land 1 = 1 then go right r1 else go left (i - r1)
  in
  match t.root with
  | None -> invalid_arg "Huffman_wavelet.access_rank: empty"
  | Some root -> go root i

let access t i =
  if i < 0 || i >= t.len then invalid_arg "Huffman_wavelet.access";
  access_rank t i land ((1 lsl t.sym_bits) - 1)

let[@inline] code_bit (code : Huffman.code) depth = (code.bits lsr (code.len - 1 - depth)) land 1

(* Rank of the symbol with [code] before position [i] of [node], which
   sits at [depth] on that code's path. *)
let rec rank_from code node depth i =
  if i = 0 then 0
  else
    match node with
    | Leaf _ -> i
    | Node { bv; left; right } ->
      if code_bit code depth = 1 then rank_from code right (depth + 1) (Rank_select.rank1 bv i)
      else rank_from code left (depth + 1) (Rank_select.rank0 bv i)

let rank t c i =
  if i < 0 || i > t.len then invalid_arg "Huffman_wavelet.rank";
  if c < 0 || c >= t.sigma || t.codes.(c).Huffman.len = 0 then 0
  else match t.root with None -> 0 | Some root -> rank_from t.codes.(c) root 0 i

(* Map positions [i <= j] down the code of [c] together; once they meet
   (no [c] between them) one rank descent serves both. *)
let rank_pair t c i j =
  if i < 0 || j < i || j > t.len then invalid_arg "Huffman_wavelet.rank_pair";
  if c < 0 || c >= t.sigma || t.codes.(c).Huffman.len = 0 then (0, 0)
  else begin
    let code = t.codes.(c) in
    let rec go node depth i j =
      if i = j then
        let r = rank_from code node depth i in
        (r, r)
      else
        match node with
        | Leaf _ -> (i, j)
        | Node { bv; left; right } ->
          let ri = Rank_select.rank1 bv i and rj = Rank_select.rank1 bv j in
          if code_bit code depth = 1 then go right (depth + 1) ri rj
          else go left (depth + 1) (i - ri) (j - rj)
    in
    match t.root with None -> (0, 0) | Some root -> go root 0 i j
  end

let select t c k =
  if k < 0 then invalid_arg "Huffman_wavelet.select";
  if c < 0 || c >= t.sigma || t.codes.(c).Huffman.len = 0 then raise Not_found;
  let code = t.codes.(c) in
  let rec go node depth k =
    match node with
    | Leaf _ -> k
    | Node { bv; left; right } ->
      if code_bit code depth = 1 then begin
        let pos = go right (depth + 1) k in
        if pos >= Rank_select.ones bv then raise Not_found;
        Rank_select.select1 bv pos
      end
      else begin
        let pos = go left (depth + 1) k in
        if pos >= Rank_select.zeros bv then raise Not_found;
        Rank_select.select0 bv pos
      end
  in
  match t.root with
  | None -> raise Not_found
  | Some root ->
    let pos = go root 0 k in
    if pos >= t.len then raise Not_found else pos

let count t c = rank t c t.len
let rank_range t c l r = rank t c r - rank t c l

let space_bits t =
  let rec go = function
    | Leaf _ -> 63
    | Node { bv; left; right } -> Rank_select.space_bits bv + go left + go right + (3 * 63)
  in
  (match t.root with None -> 0 | Some r -> go r) + (Array.length t.codes * 2 * 63) + (3 * 63)

let to_array t = Array.init t.len (access t)
