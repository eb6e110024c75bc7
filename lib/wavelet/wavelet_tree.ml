(* Balanced binary wavelet tree over an integer alphabet [0, sigma).

   Supports access / rank / select in O(log sigma) time using one
   rank/select bit vector per internal node.  This is the static sequence
   representation used for the BWT inside the FM-index (the role played by
   the structures of Grossi et al. / Ferragina et al. in the paper). *)

open Dsdg_bits

type node =
  | Leaf of int (* symbol *)
  | Node of {
      bv : Rank_select.t; (* bit i = 1 iff i-th sequence symbol goes right *)
      lo : int;
      hi : int; (* alphabet sub-range [lo, hi) *)
      left : node;
      right : node;
    }

type t = {
  root : node;
  len : int;
  sigma : int;
}

let length t = t.len
let sigma t = t.sigma

let rec build_node (seq : int array) lo hi tick =
  if hi - lo = 1 then Leaf lo
  else begin
    let mid = (lo + hi) / 2 in
    let n = Array.length seq in
    let bv = Bitvec.create n in
    let nleft = ref 0 in
    for i = 0 to n - 1 do
      tick ();
      if seq.(i) >= mid then Bitvec.set bv i else incr nleft
    done;
    let left_seq = Array.make !nleft 0 in
    let right_seq = Array.make (n - !nleft) 0 in
    let li = ref 0 and ri = ref 0 in
    for i = 0 to n - 1 do
      if seq.(i) >= mid then begin
        right_seq.(!ri) <- seq.(i);
        incr ri
      end
      else begin
        left_seq.(!li) <- seq.(i);
        incr li
      end
    done;
    Node
      {
        bv = Rank_select.build bv;
        lo;
        hi;
        left = build_node left_seq lo mid tick;
        right = build_node right_seq mid hi tick;
      }
  end

let build ?(tick = fun () -> ()) ~sigma (seq : int array) =
  if sigma < 1 then invalid_arg "Wavelet_tree.build: sigma < 1";
  Array.iter (fun c -> if c < 0 || c >= sigma then invalid_arg "Wavelet_tree.build: symbol out of range") seq;
  { root = build_node seq 0 sigma tick; len = Array.length seq; sigma }

let access t i =
  if i < 0 || i >= t.len then invalid_arg "Wavelet_tree.access";
  let rec go node i =
    match node with
    | Leaf c -> c
    | Node { bv; left; right; _ } ->
      let p = Rank_select.access_rank bv i in
      if p land 1 = 1 then go right (p lsr 1) else go left (i - (p lsr 1))
  in
  go t.root i

(* Number of occurrences of symbol [c] in positions [0, i). *)
let rank t c i =
  if i < 0 || i > t.len then invalid_arg "Wavelet_tree.rank";
  if c < 0 || c >= t.sigma then 0
  else begin
    let rec go node i =
      if i = 0 then 0
      else
        match node with
        | Leaf _ -> i
        | Node { bv; lo; hi; left; right } ->
          let mid = (lo + hi) / 2 in
          if c >= mid then go right (Rank_select.rank1 bv i)
          else go left (Rank_select.rank0 bv i)
    in
    go t.root i
  end

(* Position of the [k]-th (0-based) occurrence of [c]; raises Not_found if
   there are at most [k] occurrences. *)
let select t c k =
  if k < 0 then invalid_arg "Wavelet_tree.select";
  if c < 0 || c >= t.sigma then raise Not_found;
  let rec go node k =
    match node with
    | Leaf _ -> k
    | Node { bv; lo; hi; left; right } ->
      let mid = (lo + hi) / 2 in
      if c >= mid then begin
        let pos = go right k in
        if pos >= Rank_select.ones bv then raise Not_found;
        Rank_select.select1 bv pos
      end
      else begin
        let pos = go left k in
        if pos >= Rank_select.zeros bv then raise Not_found;
        Rank_select.select0 bv pos
      end
  in
  let pos = go t.root k in
  if pos >= t.len then raise Not_found else pos

(* rank over a half-open range: occurrences of c in [l, r). *)
let rank_range t c l r = rank t c r - rank t c l

let count t c = rank t c t.len

let space_bits t =
  let rec go = function
    | Leaf _ -> 63
    | Node { bv; left; right; _ } -> Rank_select.space_bits bv + go left + go right + (4 * 63)
  in
  go t.root + (3 * 63)

let to_array t = Array.init t.len (access t)
