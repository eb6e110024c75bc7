(* perfbench: the repository benchmark. See NOTES.md for the workloads,
   the metrics and what each per-layer number should move.

   perfbench --workload W --seed N --seconds S --trace 0|1 --dsdg PATH
             [--rev REV]

   The last line of standard output is one JSON object: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer ones. *)

module T = Dsdg_check.Trace
module Di = Dsdg_core.Dynamic_index
module G = Dsdg_binrel.Digraph

let fail = Util.fail
let m = Util.m
let pct = Util.pct

type outcome = {
  metrics : Util.metric list;  (** end-to-end, timings at nominal host speed *)
  raw : Util.metric list;  (** the same, as timed on the host *)
  slowness : float;  (** of the timed phase, see Calib *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness checks *)
  samples : (string * int) list;  (** sample count behind each percentile *)
  sizes : (string * string) list;
  layers : unit -> Util.metric list;  (** per-layer metrics of this run's data *)
}

let p50 ?(what = "samples") s = pct ~what s 0.5

(* The end-to-end metrics, raw and at the nominal host speed, and the
   sample count behind each percentile. [setups] holds each set-up's
   wall time and the host's slowness around it; [cal] holds the probes
   of the timed phase. *)
let end_to_end ~setups ~cal ~ops_per_s ~count ~search ~extract ~reads ~writes ~bits ~rss ~attempted ~failed =
  let timed scale =
    let t name what s p = m name "us" (pct ~what (scale s) p) in
    [
      t "count_p50_us" "count" count 0.5;
      t "search_p50_us" "search" search 0.5;
      t "extract_p50_us" "extract" extract 0.5;
      t "read_p95_us" "reads" reads 0.95;
      t "write_p50_us" "writes" writes 0.5;
      t "write_p95_us" "writes" writes 0.95;
    ]
  in
  let rest =
    [
      m "bits_per_item" "bits" bits;
      m "peak_rss_mb" "MB" rss;
      m "success_frac" "frac" (1. -. (float_of_int failed /. float_of_int (max 1 attempted)));
    ]
  in
  let setup f = m "setup_s" "s" (Util.median_f (List.map f setups)) in
  let raw = (setup fst :: m "ops_per_s" "1/s" ops_per_s :: timed Fun.id) @ rest in
  let scaled =
    (setup (fun (dt, sl) -> dt /. sl)
     :: m "ops_per_s" "1/s" (ops_per_s *. Calib.rate_factor cal (Util.merge [ reads; writes ]))
     :: timed (Calib.scale cal))
    @ rest
  in
  let n name s = (name, Util.count s) in
  ( scaled,
    raw,
    [
      n "count_p50_us" count;
      n "search_p50_us" search;
      n "extract_p50_us" extract;
      n "read_p95_us" reads;
      n "write_p50_us" writes;
      n "write_p95_us" writes;
    ] )

(* --- the document layers of the traced run --- *)

let lat_p50 lat verb = p50 ~what:(Gen.verb_name verb) (List.assoc verb lat)

(* Store, recovery, core, static and codec layers over one canonical
   replay stream starting from the [base] store, which holds
   [base_docs]. Returns the metrics and, for the served split, the
   per-verb in-process p50s through the store and the codec p50s. *)
let doc_layers ~seed ~base ~base_docs src =
  let ops = Docs.canonical ~seed ~n_pre:(Array.length base_docs) ~min_each:(Util.needed 0.99) src in
  let writes = Docs.writes_of ops in
  let user_bytes = List.fold_left (fun a op -> match op with T.Insert s -> a + String.length s | _ -> a) 0 writes in
  let sync_lat, sync_log = Docs.wal_append ~sync:Dsdg_store.Wal.Always writes in
  let nosync_lat, _ = Docs.wal_append ~sync:Dsdg_store.Wal.Never writes in
  let wal_bytes = Util.file_size sync_log in
  let read_s, apply_lat, ridx = Docs.recovery_apply ~log:sync_log ~base in
  Di.close ridx;
  let durable = Docs.replay_durable ~base ops in
  let dwrites = Util.merge [ List.assoc Gen.Insert durable; List.assoc Gen.Delete durable ] in
  let core = Docs.replay_core ~base ~base_docs ops in
  let count_pats = Array.to_list ops |> List.filter_map (fun r -> match r.Docs.op with T.Count p -> Some p | _ -> None) in
  let fm_lat, fm_build_s, fm_bits = Docs.static_fm core.Docs.c_live count_pats in
  let codec = Docs.codec core.Docs.c_replies in
  let codec_p50 k = p50 ~what:("codec " ^ k) (Hashtbl.find codec k) in
  let c = core.Docs.c_lat in
  let metrics =
    [
      m "wal.append_sync_us" "us" (p50 sync_lat);
      m "wal.append_nosync_us" "us" (p50 nosync_lat);
      m "durable.apply_p50_us" "us" (p50 dwrites);
      m "durable.apply_p99_us" "us" (pct dwrites 0.99);
      m "wal.bytes_per_user_byte" "ratio" (float_of_int wal_bytes /. float_of_int (max 1 user_bytes));
      m "wal.read_s" "s" read_s;
      m "recovery.apply_p50_us" "us" (p50 apply_lat);
      m "recovery.apply_p99_us" "us" (pct apply_lat 0.99);
      m "index.insert_p50_us" "us" (lat_p50 c Gen.Insert);
      m "index.insert_p99_us" "us" (pct (List.assoc Gen.Insert c) 0.99);
      m "index.delete_p50_us" "us" (lat_p50 c Gen.Delete);
      m "index.delete_p99_us" "us" (pct (List.assoc Gen.Delete c) 0.99);
      m "index.count_p50_us" "us" (lat_p50 c Gen.Count);
      m "index.search_p50_us" "us" (lat_p50 c Gen.Search);
      m "index.extract_p50_us" "us" (lat_p50 c Gen.Extract);
      m "index.search_hits" "count" core.Docs.c_hits;
    ]
    @ List.map (fun (k, v) -> m ("index." ^ k) "count" v) core.Docs.c_obs
    @ List.map (fun (k, v) -> m ("gc." ^ k ^ "_per_op") "count" v) core.Docs.c_gc
    @ [
        m "index.dead_frac" "frac" core.Docs.c_dead_frac;
        m "static.fm_count_us" "us" (p50 fm_lat);
        m "static.fm_build_s" "s" fm_build_s;
        m "static.fm_bits_per_symbol" "bits" fm_bits;
      ]
    @ List.map (fun k -> m ("protocol.codec_us." ^ k) "us" (codec_p50 k)) [ "count"; "search"; "extract"; "write" ]
  in
  let codec_of v = codec_p50 (if Gen.is_write v then "write" else Gen.verb_name v) in
  (metrics, durable, codec_of)

(* --- serve-read --- *)

let serve_workload ~dsdg ~seed ~seconds ~rounds ~keep_log =
  let setups = ref [] and bits = ref nan and srv = ref None and preload = ref [||] in
  let pristine = Util.fresh "preload" in
  for round = 1 to rounds do
    let dir = Util.fresh (Printf.sprintf "store%d" round) in
    let aside_s = ref 0. in
    Gc.compact ();
    let s, dt, slow =
      Calib.around (fun () ->
          preload := Gen.docs (Gen.rng Gen.preload_seed 1) Gen.preload_docs;
          Served.build_preload dir !preload;
          (* not set-up time: the space the server will restore, and a
             copy of the starting state for the traced run's replays *)
          let (), t =
            Util.time (fun () ->
                if round = 1 then bits := Served.store_bits dir;
                if round = rounds && keep_log then Util.copy_dir dir pristine)
          in
          aside_s := t;
          let s = Served.spawn ~dsdg ~dir ~sock:(Util.fresh (Printf.sprintf "s%d.sock" round)) in
          Served.wait_ready s;
          s)
    in
    setups := (dt -. !aside_s, slow) :: !setups;
    if round < rounds then begin
      ignore (Served.stop s);
      Util.rm_rf dir
    end
    else srv := Some (s, dir)
  done;
  let s, dir = Option.get !srv in
  let preload = !preload in
  let probes = Gen.probes seed preload in
  let p = Served.run_pass ~srv:s ~seed ~mix:Gen.read_mix ~preload ~seconds ~keep_log in
  (match Served.stop s with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "the server did not drain and exit 0 on SIGTERM: %s" (Served.log_tail s));
  let errors = Served.check_store ~dir ~preload ~probes p.Served.p_clients in
  let cl = p.Served.p_clients in
  let lat = Served.lat_of cl in
  let reads = Served.reads cl and writes = Served.writes cl in
  let attempted = Served.pass_attempted p and failed = Served.pass_failed p in
  let metrics, raw, samples =
    end_to_end ~setups:!setups ~cal:p.Served.p_cal
      ~ops_per_s:(float_of_int (Served.pass_ops p) /. p.Served.p_elapsed)
      ~count:(lat Gen.Count) ~search:(lat Gen.Search) ~extract:(lat Gen.Extract) ~reads ~writes ~bits:!bits
      ~rss:p.Served.p_rss_mb ~attempted ~failed
  in
  let layers () =
    let docs_m, durable, codec_of =
      let src = List.map (fun e -> (e.Served.e_verb, e.Served.e_op, e.Served.e_sid)) (Served.pass_log p) in
      doc_layers ~seed ~base:pristine ~base_docs:preload src
    in
    let serve_m =
      let ops = float_of_int (Served.pass_ops p) in
      let in_reads = Util.merge (List.map (fun v -> List.assoc v durable) [ Gen.Count; Gen.Search; Gen.Extract ]) in
      let split =
        List.concat_map
          (fun v ->
            let served = p50 (lat v) and inproc = lat_p50 durable v and codec = codec_of v in
            let name = Gen.verb_name v in
            [
              m ("serve.gap_us." ^ name) "us" (served -. inproc);
              m ("split." ^ name ^ ".protocol_us") "us" codec;
              m ("split." ^ name ^ ".index_store_us") "us" inproc;
              m ("split." ^ name ^ ".transport_wait_us") "us" (served -. inproc -. codec);
            ])
          Gen.verbs
      in
      split
      @ [
          m "serve.cpu_us_per_op" "us" (Util.us_of p.Served.p_cpu_s /. ops);
          m "serve.ctx_switches_per_op" "count" (float_of_int p.Served.p_ctx /. ops);
          m "serve.read_wait_p95_us" "us" (pct reads 0.95 -. pct in_reads 0.95);
        ]
    in
    serve_m @ docs_m
  in
  {
    metrics;
    raw;
    slowness = Calib.slowness p.Served.p_cal;
    attempted;
    failed;
    errors;
    samples;
    sizes =
      [
        ("preload_docs", string_of_int (Array.length preload));
        ("preload_symbols", string_of_int (Array.fold_left (fun a d -> a + String.length d + 1) 0 preload));
        ("clients", "2");
        ("search_hits_per_query", Printf.sprintf "%.0f" (float_of_int (List.fold_left (fun a c -> a + c.Served.hits) 0 cl) /. float_of_int (max 1 (Util.count (lat Gen.Search)))));
      ];
    layers;
  }

(* --- graph-churn --- *)

let graph_workload ~seed ~seconds ~rounds =
  (* set-up: generate the edge stream and preload half of it *)
  let g = ref None and edges = ref [||] in
  let setups =
    List.init rounds (fun _ ->
        g := None;
        (* each set-up starts from a compacted heap, not the last one's garbage *)
        Gc.compact ();
        let x, dt, slow =
          Calib.around (fun () ->
              edges := Gen.graph_edges ();
              Graph.build !edges (Array.length !edges / 2))
        in
        g := Some x;
        (dt, slow))
  in
  let g = Option.get !g and edges = !edges in
  let n_pre = Array.length edges / 2 in
  let bits = float_of_int (G.space_bits g) /. float_of_int (G.edge_count g) in
  let model = Graph.model_of edges n_pre in
  Gc.compact ();
  let r = Graph.churn ~seed ~seconds g model in
  let errors = r.Graph.r_wrong @ Graph.check g model in
  let l k = List.assoc k r.Graph.r_lat in
  let scans = Util.merge [ l "succ"; l "pred" ] in
  let metrics, raw, samples =
    end_to_end ~setups ~cal:r.Graph.r_cal
      ~ops_per_s:(float_of_int r.Graph.r_attempted /. r.Graph.r_elapsed)
      ~count:(l "degree") ~search:scans ~extract:(l "mem")
      ~reads:(Util.merge [ scans; l "degree"; l "mem" ])
      ~writes:(Util.merge [ l "add"; l "remove" ])
      ~bits
      ~rss:(Util.peak_rss_mb ()) ~attempted:r.Graph.r_attempted ~failed:r.Graph.r_failed
  in
  let layers () =
    let s0 = r.Graph.r_stats0 and s1 = r.Graph.r_stats1 in
    let module R = Dsdg_binrel.Rel_backend in
    [
      m "rel.add_p50_us" "us" (p50 (l "add"));
      m "rel.add_p99_us" "us" (pct (l "add") 0.99);
      m "rel.remove_p50_us" "us" (p50 (l "remove"));
      m "rel.remove_p99_us" "us" (pct (l "remove") 0.99);
      m "rel.succ_p50_us" "us" (p50 (l "succ"));
      m "rel.pred_p50_us" "us" (p50 (l "pred"));
      m "rel.merges" "count" (float_of_int (s1.R.merges - s0.R.merges));
      m "rel.purges" "count" (float_of_int (s1.R.purges - s0.R.purges));
      m "rel.global_rebuilds" "count" (float_of_int (s1.R.global_rebuilds - s0.R.global_rebuilds));
    ]
  in
  {
    metrics;
    raw;
    slowness = Calib.slowness r.Graph.r_cal;
    attempted = r.Graph.r_attempted;
    failed = r.Graph.r_failed;
    errors;
    samples;
    sizes = [ ("edges", string_of_int (Array.length edges)); ("preloaded_edges", string_of_int n_pre); ("nodes", string_of_int Gen.graph_nodes) ];
    layers;
  }

(* --- dispatch --- *)

let workloads = [ "serve-read"; "graph-churn" ]

let run ~dsdg ~seed ~seconds ~rounds ~keep_log = function
  | "serve-read" -> serve_workload ~dsdg ~seed ~seconds ~rounds ~keep_log
  | "graph-churn" -> graph_workload ~seed ~seconds ~rounds
  | w -> fail "unknown workload %S" w

let value name ms = (List.find (fun (x : Util.metric) -> x.Util.m_name = name) ms).Util.m_value

(* The traced run: the workload untraced and then traced on the same
   seed (half the time each; their ops_per_s difference is the tracing
   overhead), its own layers from the traced pass, and the layers it
   does not drive from short traced companion runs -- serve-read for the
   served and document layers, graph-churn for the relation. *)
let traced ~dsdg ~seed ~seconds w =
  let half = seconds /. 2. in
  let plain = run ~dsdg ~seed ~seconds:half ~rounds:1 ~keep_log:false w in
  Span.on := true;
  let tr = run ~dsdg ~seed ~seconds:half ~rounds:1 ~keep_log:true w in
  let u = value "ops_per_s" plain.metrics and t = value "ops_per_s" tr.metrics in
  let layer_metrics = tr.layers () in
  let companion = if w = "graph-churn" then "serve-read" else "graph-churn" in
  let extra =
    (* at least 10 s: serve-read's clients start deleting only once they
       own their backlog, about 4 s in *)
    let o = run ~dsdg ~seed ~seconds:(Float.max 10. (seconds /. 4.)) ~rounds:1 ~keep_log:true companion in
    if o.errors <> [] then fail "companion %s failed its check: %s" companion (List.hd o.errors);
    o.layers ()
  in
  Span.on := false;
  let outcome = { tr with errors = plain.errors @ tr.errors } in
  (outcome, layer_metrics @ extra @ [ m "trace.overhead_frac" "frac" ((u -. t) /. u) ])

(* Per-verb self time of each span name, and the served split. *)
let print_trace ~w ~seed layer_metrics =
  let path = Printf.sprintf "%s/traces/%s-seed%d.spans" Util.run_root w seed in
  Span.dump path;
  Printf.printf "spans written to %s\n" path;
  let self = Span.self_times () in
  Printf.printf "%-24s %8s %12s %12s\n" "span (self time)" "count" "p50_us" "total_ms";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare
  |> List.iter (fun (name, s) ->
         let n = Util.count s in
         let sorted = Util.sorted s in
         Printf.printf "%-24s %8d %12.1f %12.1f\n" name n sorted.(n / 2) (Array.fold_left ( +. ) 0. sorted /. 1e3));
  let get k = List.find_opt (fun (x : Util.metric) -> x.Util.m_name = k) layer_metrics in
  Printf.printf "served p50 split (us): %-8s %10s %12s %16s\n" "verb" "protocol" "index/store" "transport+wait";
  List.iter
    (fun v ->
      let n = Gen.verb_name v in
      match (get ("split." ^ n ^ ".protocol_us"), get ("split." ^ n ^ ".index_store_us"), get ("split." ^ n ^ ".transport_wait_us")) with
      | Some a, Some b, Some c ->
        Printf.printf "                       %-8s %10.1f %12.1f %16.1f\n" n a.Util.m_value b.Util.m_value c.Util.m_value
      | _ -> ())
    Gen.verbs

let stamp ~w ~seed ~seconds ~trace ~rev o =
  let kv l = String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) l) in
  Printf.printf "stamp: {%s, \"samples\": {%s}, \"sizes\": {%s}}\n"
    (kv
       [
         ("workload", Printf.sprintf "%S" w);
         ("seed", string_of_int seed);
         ("seconds", Util.json_float seconds);
         ("trace", string_of_int trace);
         ("rev", Printf.sprintf "%S" rev);
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
         ("server", "\"dsdg serve: worst-case/fm, sync never, jobs 0, readers 0\"");
         ("failed_frac", Util.json_float (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
         ("host_slowness", Util.json_float o.slowness);
         ("calibration_nominal_us", Util.json_float Calib.nominal_us);
         ("raw", "{" ^ String.concat ", " (List.map (fun (x : Util.metric) -> Printf.sprintf "%S: %s" x.Util.m_name (Util.json_float x.Util.m_value)) o.raw) ^ "}");
       ])
    (kv (List.map (fun (k, n) -> (k, string_of_int n)) o.samples))
    (kv (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) o.sizes))

let main () =
  let w = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref 0 and dsdg = ref "" and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string w, "W " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--dsdg", Arg.Set_string dsdg, "PATH the built dsdg binary");
      ("--rev", Arg.Set_string rev, "REV source revision for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --dsdg PATH";
  if not (List.mem !w workloads) then fail "--workload must be one of %s" (String.concat ", " workloads);
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then fail "bad --seed, --seconds or --trace";
  if not (Sys.file_exists !dsdg) then fail "no dsdg binary at %S" !dsdg;
  let o, ms =
    if !trace = 0 then
      let o = run ~dsdg:!dsdg ~seed:!seed ~seconds:!seconds ~rounds:3 ~keep_log:false !w in
      (o, o.metrics)
    else begin
      let o, ms = traced ~dsdg:!dsdg ~seed:!seed ~seconds:!seconds !w in
      print_trace ~w:!w ~seed:!seed ms;
      (o, ms)
    end
  in
  stamp ~w:!w ~seed:!seed ~seconds:!seconds ~trace:!trace ~rev:!rev o;
  List.iter (fun (x : Util.metric) -> Printf.printf "  %-34s %14.3f %s\n" x.Util.m_name x.Util.m_value x.Util.m_unit) ms;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) o.errors;
  List.iter
    (fun (x : Util.metric) -> if not (Float.is_finite x.Util.m_value) then fail "metric %s is not finite" x.Util.m_name)
    ms;
  let correct = o.errors = [] in
  print_endline (Util.result_line ~correct ~attempted:o.attempted ~failed:o.failed (if correct then ms else []));
  if not correct then exit 1

let () =
  Printexc.record_backtrace true;
  let cleanup () =
    Served.stop_all ();
    Util.cleanup_run_dir ()
  in
  at_exit cleanup;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main () with
  | () -> ()
  | exception Util.Failed msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | exception Util.Too_few msg ->
    prerr_endline ("perfbench: too few samples for a percentile: " ^ msg);
    exit 1
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    Printexc.print_backtrace stderr;
    exit 1
