(* The graph-churn workload: an in-process Digraph on the default [Str]
   relation, half of a web-crawl edge stream preloaded, then edge adds
   and removes alternating with neighbour reads. *)

module G = Dsdg_binrel.Digraph

type model = {
  present : (int * int) array;  (** [0, n_present) live edges, the rest absent *)
  mutable n_present : int;
  slot : (int * int, int) Hashtbl.t;  (** edge -> index in [present] *)
  outd : (int, int) Hashtbl.t;
  ind : (int, int) Hashtbl.t;
}

let bump tbl k d = Hashtbl.replace tbl k ((try Hashtbl.find tbl k with Not_found -> 0) + d)
let deg tbl k = try Hashtbl.find tbl k with Not_found -> 0

let swap m i j =
  let a = m.present.(i) and b = m.present.(j) in
  m.present.(i) <- b;
  m.present.(j) <- a;
  Hashtbl.replace m.slot b i;
  Hashtbl.replace m.slot a j

let model_of edges n_pre =
  let m =
    { present = Array.copy edges; n_present = n_pre; slot = Hashtbl.create (Array.length edges); outd = Hashtbl.create 4096; ind = Hashtbl.create 4096 }
  in
  Array.iteri (fun i e -> Hashtbl.replace m.slot e i) edges;
  for i = 0 to n_pre - 1 do
    let u, v = edges.(i) in
    bump m.outd u 1;
    bump m.ind v 1
  done;
  m

(* Move edge at [i] across the present/absent boundary. *)
let set_present m i =
  swap m i m.n_present;
  let u, v = m.present.(m.n_present) in
  m.n_present <- m.n_present + 1;
  bump m.outd u 1;
  bump m.ind v 1

let set_absent m i =
  swap m i (m.n_present - 1);
  m.n_present <- m.n_present - 1;
  let u, v = m.present.(m.n_present) in
  bump m.outd u (-1);
  bump m.ind v (-1)

let build edges n_pre =
  let g = G.create () in
  for i = 0 to n_pre - 1 do
    let u, v = edges.(i) in
    ignore (G.add_edge g u v)
  done;
  g

type result = {
  r_lat : (string * Util.samples) list;
      (** add, remove, succ, pred, degree, mem -- microseconds *)
  r_attempted : int;
  r_failed : int;
  r_wrong : string list;
  r_elapsed : float;  (** seconds, probes excluded *)
  r_cal : Calib.t;  (** the probes of the timed loop *)
  r_stats0 : Dsdg_binrel.Rel_backend.stats;
  r_stats1 : Dsdg_binrel.Rel_backend.stats;
}

let kinds = [ "add"; "remove"; "succ"; "pred"; "degree"; "mem" ]

(* Steps (one write and one read each) per second of --seconds: about
   that many seconds on the benchmark host. The run's work is fixed
   rather than its time: the relation's merge schedule follows its
   update count, and its read costs follow the schedule, so a run that
   stopped at a time would cover a different part of the schedule on a
   faster or slower host. *)
let steps_per_second = 5_000.

(* The timed loop: a write (add an absent edge or remove a present one,
   alternately), then a read (successor scan, predecessor scan, degree
   or edge test, in turn), each checked against the model, for
   [seconds *. steps_per_second] steps, or until five times [seconds]
   have passed. A calibration probe runs between steps every
   [Calib.every] seconds. *)
let churn ~seed ~seconds g m =
  let st = Gen.rng seed 31 in
  let lat = List.map (fun k -> (k, Util.samples ())) kinds in
  let wrong = ref [] and attempted = ref 0 and failed = ref 0 in
  let time kind f =
    incr attempted;
    let root = Span.start ("rel." ^ kind) ~parent:0 ~req:!attempted in
    let t0 = Util.now () in
    let r = f () in
    let t1 = Util.now () in
    Span.finish root;
    Util.add ~at:t1 (List.assoc kind lat) (Util.us_of (t1 -. t0));
    r
  in
  let bad fmt = Printf.ksprintf (fun s -> incr failed; wrong := s :: !wrong) fmt in
  let total = Array.length m.present in
  let random_present () = m.present.(Random.State.int st m.n_present) in
  let stats0 = G.stats g in
  let t0 = Util.now () in
  let steps = int_of_float (seconds *. steps_per_second) and hard = t0 +. (5. *. seconds) in
  let enough () =
    List.for_all (fun k -> Util.count (List.assoc k lat) >= Util.needed 0.99) [ "add"; "remove" ]
    && List.for_all (fun k -> Util.count (List.assoc k lat) >= Util.needed 0.5) kinds
  in
  let step = ref 0 in
  let cal = Calib.create () and next_probe = ref t0 in
  while
    let t = Util.now () in
    if t >= !next_probe then begin
      Calib.take cal;
      next_probe := t +. Calib.every
    end;
    !step < steps && t < hard
  do
    (* write *)
    (if !step land 1 = 0 then begin
       let i = m.n_present + Random.State.int st (total - m.n_present) in
       let u, v = m.present.(i) in
       if not (time "add" (fun () -> G.add_edge g u v)) then bad "add %d->%d: edge already present" u v;
       set_present m i
     end
     else begin
       let i = Random.State.int st m.n_present in
       let u, v = m.present.(i) in
       if not (time "remove" (fun () -> G.remove_edge g u v)) then bad "remove %d->%d: edge absent" u v;
       set_absent m i
     end);
    (* read *)
    let u, v = random_present () in
    (match (!step / 2) land 3 with
    | 0 ->
      let n = time "succ" (fun () -> List.length (G.successors g u)) in
      if n <> deg m.outd u then bad "successors of %d: %d, model %d" u n (deg m.outd u)
    | 1 ->
      let n = time "pred" (fun () -> List.length (G.predecessors g v)) in
      if n <> deg m.ind v then bad "predecessors of %d: %d, model %d" v n (deg m.ind v)
    | 2 ->
      let n = time "degree" (fun () -> G.out_degree g u + G.in_degree g v) in
      if n <> deg m.outd u + deg m.ind v then bad "degrees of %d, %d disagree with the model" u v
    | _ ->
      let x, y = m.present.(Random.State.int st total) in
      let want = Hashtbl.find m.slot (x, y) < m.n_present in
      if time "mem" (fun () -> G.mem_edge g x y) <> want then bad "mem_edge %d->%d wrong" x y);
    incr step
  done;
  if !step < steps then Util.log "time cap: stopped after %d of %d steps" !step steps;
  if not (enough ()) then Util.fail "too few samples after %.0f s" (Util.now () -. t0);
  {
    r_lat = lat;
    r_attempted = !attempted;
    r_failed = !failed;
    r_wrong = List.rev !wrong;
    r_elapsed = Util.now () -. t0 -. cal.Calib.paused;
    r_cal = cal;
    r_stats0 = stats0;
    r_stats1 = G.stats g;
  }

(* The correctness gate: the final edge set equals the model's. *)
let check g m =
  let want = List.sort compare (Array.to_list (Array.sub m.present 0 m.n_present)) in
  if G.edges g = want then [] else [ Printf.sprintf "final edge set differs from the model (%d vs %d edges)" (G.edge_count g) m.n_present ]
