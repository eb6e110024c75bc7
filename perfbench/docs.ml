(* In-process document layers: the replays of the traced run (store,
   recovery, core, static, codec). Every call into a layer is timed
   from outside, around the module's public function. *)

module T = Dsdg_check.Trace
module P = Dsdg_serve.Protocol
module Di = Dsdg_core.Dynamic_index
module Durable = Dsdg_store.Durable
module Wal = Dsdg_store.Wal
module Recovery = Dsdg_store.Recovery
module Fm = Dsdg_fm.Fm_index
module Obs = Dsdg_obs.Obs

let fail = Util.fail

(* --- the canonical replay stream --- *)

type rop = { verb : Gen.verb; op : T.op }

(* Map a request log (ids as the source assigned them; [sid] is the id
   an insert received) to ids a replay assigns when it starts from a
   collection of [n_pre] documents with ids 0..n_pre-1. Then extend the
   stream with inserts and deletes of random live documents until it
   holds at least [min_each] of each, so the per-layer p99s have
   enough samples. *)
let canonical ~seed ~n_pre ~min_each (src : (Gen.verb * T.op * int) list) =
  let map = Hashtbl.create 4096 in
  for i = 0 to n_pre - 1 do
    Hashtbl.replace map i i
  done;
  let live = ref (Array.init (max 16 n_pre) (fun i -> i)) and n_live = ref n_pre in
  let pos = Hashtbl.create 4096 in
  for i = 0 to n_pre - 1 do
    Hashtbl.replace pos i i
  done;
  let next = ref n_pre in
  let push id =
    if !n_live = Array.length !live then live := Array.append !live (Array.make !n_live 0);
    !live.(!n_live) <- id;
    Hashtbl.replace pos id !n_live;
    incr n_live
  in
  let remove id =
    let k = Hashtbl.find pos id in
    let last = !live.(!n_live - 1) in
    !live.(k) <- last;
    Hashtbl.replace pos last k;
    Hashtbl.remove pos id;
    decr n_live
  in
  let out = ref [] and ins = ref 0 and dels = ref 0 in
  let emit verb op = out := { verb; op } :: !out in
  let insert text sid =
    Hashtbl.replace map sid !next;
    push !next;
    incr next;
    incr ins;
    emit Gen.Insert (T.Insert text)
  in
  let delete id =
    remove id;
    incr dels;
    emit Gen.Delete (T.Delete id)
  in
  List.iter
    (fun (verb, op, sid) ->
      match op with
      | T.Insert text -> insert text sid
      | T.Delete s -> delete (Hashtbl.find map s)
      | T.Extract e -> emit verb (T.Extract { e with doc = Hashtbl.find map e.doc })
      | op -> emit verb op)
    src;
  let st = Gen.rng seed 5 in
  while !ins < min_each || !dels < min_each do
    if !dels >= min_each || (!ins < min_each && Random.State.bool st) then insert (Gen.write_doc st) (- !next - 1)
    else delete !live.(Random.State.int st !n_live)
  done;
  Array.of_list (List.rev !out)

let writes_of ops = Array.to_list ops |> List.filter (fun r -> Gen.is_write r.verb) |> List.map (fun r -> r.op)

(* --- replays --- *)

let per_verb () = List.map (fun v -> (v, Util.samples ())) Gen.verbs

(* Through the store: a durable copy of the [base] store, writes logged
   under the served workload's policy (no fsync), queries on its index.
   Per-verb latency in microseconds. *)
let replay_durable ~base ops =
  let dir = Util.fresh "replay-durable" in
  Util.copy_dir base dir;
  let d, _ = Durable.open_ ~config:{ Durable.default_config with sync = Wal.Never } ~dir () in
  let idx = Durable.index d in
  let lat = per_verb () in
  Array.iter
    (fun r ->
      let t0 = Util.now () in
      (match r.op with
      | T.Insert s -> ignore (Durable.insert d s)
      | T.Delete id -> if not (Durable.delete d id) then fail "replay: delete %d found nothing" id
      | T.Count p -> ignore (Di.count idx p)
      | T.Search p -> ignore (Di.search idx p)
      | T.Extract { doc; off; len } -> ignore (Di.extract idx ~doc ~off ~len)
      | _ -> ());
      Util.add (List.assoc r.verb lat) (Util.us_of (Util.now () -. t0)))
    ops;
  Durable.close d;
  Util.rm_rf dir;
  lat

(* The index a copy of the [base] store recovers to. *)
let open_base base =
  let dir = Util.fresh "replay-base" in
  Util.copy_dir base dir;
  let idx, _ = Recovery.open_or_recover ~read_only:true ~dir () in
  Util.rm_rf dir;
  idx

type core = {
  c_lat : (Gen.verb * Util.samples) list;
  c_hits : float;  (** mean hits per search *)
  c_obs : (string * float) list;  (** Obs counter deltas *)
  c_gc : (string * float) list;  (** per op *)
  c_dead_frac : float;
  c_live : string array;  (** final live documents *)
  c_replies : (Gen.verb * T.op * P.response) list;  (** a sample, for the codec *)
}

let obs_names = [ "restructures"; "jobs_completed"; "forced"; "top_cleanings" ]

(* Straight into the index, with no store: Dynamic_index over
   Transformation 2 and the static stack below it, timed together. *)
let replay_core ~base ~base_docs ops =
  let idx = open_base base in
  (* live documents, for the static reference index at the end *)
  let live = Hashtbl.create 4096 in
  Array.iteri (fun i text -> Hashtbl.replace live i text) base_docs;
  let lat = per_verb () in
  let obs () = Obs.counters (Di.obs_scope idx) in
  let obs0 = obs () in
  let hits = ref 0 and searches = ref 0 in
  let replies = ref [] and kept = Hashtbl.create 8 in
  let keep r resp =
    let k = try Hashtbl.find kept r.verb with Not_found -> 0 in
    if k < 100 then begin
      Hashtbl.replace kept r.verb (k + 1);
      replies := (r.verb, r.op, resp) :: !replies
    end
  in
  let gc0 = Gc.quick_stat () in
  Array.iter
    (fun r ->
      let t0 = Util.now () in
      let resp =
        match r.op with
        | T.Insert s -> P.Id (Di.insert idx s)
        | T.Delete id -> P.Bool (Di.delete idx id)
        | T.Count p -> P.Int (Di.count idx p)
        | T.Search p -> P.Hits (Di.search idx p)
        | T.Extract { doc; off; len } -> (
          match Di.extract idx ~doc ~off ~len with Some s -> P.Text s | None -> P.No_text)
        | _ -> P.Pong
      in
      Util.add (List.assoc r.verb lat) (Util.us_of (Util.now () -. t0));
      (match (r.op, resp) with
      | _, P.Hits l ->
        incr searches;
        hits := !hits + List.length l
      | T.Insert text, P.Id id -> Hashtbl.replace live id text
      | T.Delete id, P.Bool true -> Hashtbl.remove live id
      | _, P.Bool false -> fail "replay: delete found nothing"
      | _ -> ());
      keep r resp)
    ops;
  let gc1 = Gc.quick_stat () in
  let n = float_of_int (Array.length ops) in
  let obs1 = obs () in
  let delta name =
    let v l = try List.assoc name l with Not_found -> 0 in
    float_of_int (v obs1 - v obs0)
  in
  let live_sym, dead_sym =
    List.fold_left (fun (l, d) (_, lv, dd) -> (l + lv, d + dd)) (0, 0) (Di.view_census (Di.view idx))
  in
  let docs = Hashtbl.fold (fun _ text acc -> text :: acc) live [] in
  Di.close idx;
  {
    c_lat = lat;
    c_hits = float_of_int !hits /. float_of_int (max 1 !searches);
    c_obs = List.map (fun k -> (k, delta k)) obs_names;
    c_gc =
      [
        ("minor", (gc1.Gc.minor_collections - gc0.Gc.minor_collections |> float_of_int) /. n);
        ("major", (gc1.Gc.major_collections - gc0.Gc.major_collections |> float_of_int) /. n);
        ("promoted_words", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. n);
      ];
    c_dead_frac = float_of_int dead_sym /. float_of_int (max 1 (live_sym + dead_sym));
    c_live = Array.of_list docs;
    c_replies = List.rev !replies;
  }

(* The stream's write records appended to a scratch log, one append per
   record, under [Always] and under [Never]. *)
let wal_append ~sync writes =
  let path = Util.fresh ("append-" ^ Wal.sync_to_string sync ^ ".log") in
  let w = Wal.create ~sync path ~serial0:0 in
  let lat = Util.samples () in
  List.iter
    (fun op ->
      let t0 = Util.now () in
      ignore (Wal.append w op);
      Util.add lat (Util.us_of (Util.now () -. t0)))
    writes;
  Wal.close w;
  (lat, path)

(* Read a log back, then apply its records with [Recovery.apply_op] to
   [base] (the snapshot state the log continues from). Returns the read
   time, the per-record apply latencies and the final index. *)
let recovery_apply ~log ~base =
  let contents, read_s = Util.time (fun () -> Wal.read log) in
  let idx = open_base base in
  let lat = Util.samples () in
  List.iter
    (fun (_, op) ->
      let t0 = Util.now () in
      Recovery.apply_op idx op;
      Util.add lat (Util.us_of (Util.now () -. t0)))
    contents.Wal.wc_ops;
  (read_s, lat, idx)

(* The static reference point: one FM-index over the final live
   documents, queried with the stream's count patterns. *)
let static_fm live patterns =
  let fm, build_s = Util.time (fun () -> Fm.build ~sample:8 live) in
  let lat = Util.samples () in
  List.iter
    (fun p ->
      let t0 = Util.now () in
      ignore (Fm.count fm p);
      Util.add lat (Util.us_of (Util.now () -. t0)))
    patterns;
  (lat, build_s, float_of_int (Fm.space_bits fm) /. float_of_int (Fm.total_len fm))

(* Encode and parse the real request and response frames, as client and
   server each do once per request. Each frame set is timed over [reps]
   rounds so microsecond costs are resolved. *)
let codec replies =
  let reps = 20 in
  let by = Hashtbl.create 4 in
  List.iter
    (fun (verb, op, resp) ->
      let key = if Gen.is_write verb then "write" else Gen.verb_name verb in
      let t0 = Util.now () in
      for _ = 1 to reps do
        let req = P.request_to_string (P.Op op) in
        ignore (P.parse_request req);
        let line = P.response_to_string resp in
        ignore (P.parse_response line)
      done;
      let us = Util.us_of (Util.now () -. t0) /. float_of_int reps in
      let s = match Hashtbl.find_opt by key with Some s -> s | None -> let s = Util.samples () in Hashtbl.replace by key s; s in
      Util.add s us)
    replies;
  by
