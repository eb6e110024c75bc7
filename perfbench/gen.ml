(* Workload inputs, all drawn from the --seed. The program under test
   only ever sees the generated documents, patterns and edges. *)

module Text_gen = Dsdg_workload.Text_gen
module Graph_gen = Dsdg_workload.Graph_gen

(* Sizes. A document is English-like text of 100..300 symbols. The
   served workload's preload is one fixed corpus of 2000 documents
   (~400k symbols), the same for every seed: the shape Transformation 2
   gives a collection depends on its exact insertion history (its
   restored space ranged over 16.5..20.6 bits per symbol across five
   seeds of the same size), and a per-seed corpus made the served
   latencies follow that shape rather than the code. The seed drives
   everything the clients send. *)
let preload_docs = 2000
let preload_seed = 20151
let graph_nodes = 40_000
let graph_edges = 120_000

let rng seed salt = Random.State.make [| seed; salt; 0x9e3779b9 |]

let doc st = Text_gen.english_like st ~len:(100 + Random.State.int st 201)

(* A document the workloads insert: always 200 symbols. Transformation
   2's rebuild schedule follows symbol counts, so with a fixed length
   every seed's insert/delete sequence drives the same schedule. With
   100..300-symbol inserts, and inserts and deletes drawn at random, a
   write-heavy served mix ran 30 % faster on one seed than on another,
   on both of two repeats. *)
let write_doc st = Text_gen.english_like st ~len:200

let docs st n = Array.init n (fun _ -> doc st)

let word st =
  let w = Text_gen.words in
  w.(Text_gen.zipf st ~max:(Array.length w) - 1)

(* One third single Zipf words (thousands of hits), one third two-word
   phrases (about a hundred), one third planted 14-symbol substrings of
   the preloaded documents (a few). *)
let pattern st preload =
  match Random.State.int st 3 with
  | 0 -> word st
  | 1 -> word st ^ " " ^ word st
  | _ -> (
    match Text_gen.planted_pattern st preload ~len:14 with Some p -> p | None -> word st)

(* Fixed probe patterns the correctness gates count at the end. *)
let probes seed preload =
  let st = rng seed 77 in
  List.init 4 (fun _ -> word st)
  @ List.init 4 (fun _ -> word st ^ " " ^ word st)
  @ List.init 4 (fun _ ->
        match Text_gen.planted_pattern st preload ~len:14 with Some p -> p | None -> "data")

(* Request mix, in parts per hundred. *)
type mix = { insert : int; delete : int; count : int; search : int; extract : int }

let read_mix = { insert = 3; delete = 3; count = 40; search = 20; extract = 34 }

type verb = Insert | Delete | Count | Search | Extract

let verb_name = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Count -> "count"
  | Search -> "search"
  | Extract -> "extract"

let verbs = [ Count; Search; Extract; Insert; Delete ]
let is_write = function Insert | Delete -> true | _ -> false

let pick_verb st m =
  let r = Random.State.int st (m.insert + m.delete + m.count + m.search + m.extract) in
  if r < m.insert then Insert
  else if r < m.insert + m.delete then Delete
  else if r < m.insert + m.delete + m.count then Count
  else if r < m.insert + m.delete + m.count + m.search then Search
  else Extract

(* Non-overlapping occurrences are not what the index counts: it counts
   every starting position. *)
let occurrences pat text =
  let n = String.length text and m = String.length pat in
  let c = ref 0 in
  for i = 0 to n - m do
    let rec eq j = j = m || (String.unsafe_get text (i + j) = String.unsafe_get pat j && eq (j + 1)) in
    if eq 0 then incr c
  done;
  !c

(* The graph-churn edge stream: a web-crawl-shaped set of distinct
   edges, the same for every seed (the seed drives the churn): the first
   half is preloaded, the second half is the pool the run adds from.
   Scan costs follow the hubs' degrees, which differ from one generated
   graph to the next. *)
let graph_seed = 20152

let graph_edges () = Graph_gen.web_crawl (rng graph_seed 23) ~nodes:graph_nodes ~edges:graph_edges
