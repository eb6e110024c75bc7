(* The served workload: spawn the built `dsdg serve` binary on a
   preloaded store and dial it from this process over two Unix-socket
   connections, each a closed loop (the next request goes out when the
   previous reply is in). *)

module P = Dsdg_serve.Protocol
module T = Dsdg_check.Trace
module Durable = Dsdg_store.Durable
module Di = Dsdg_core.Dynamic_index

let fail = Util.fail

(* --- the server process --- *)

type server = { pid : int; sock : string; log : string; mutable status : Unix.process_status option }

let live_servers : server list ref = ref []

let rec waitpid_nohang pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* [true] once the process has exited (it is then reaped). *)
let exited s =
  match s.status with
  | Some _ -> true
  | None -> (
    match waitpid_nohang s.pid with
    | 0, _ -> false
    | _, st ->
      s.status <- Some st;
      live_servers := List.filter (fun x -> x != s) !live_servers;
      true)

(* SIGTERM, then wait for the graceful drain; SIGKILL after [grace]
   seconds. Always reaps. *)
let stop ?(grace = 30.) s =
  if not (exited s) then begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. grace in
    while (not (exited s)) && Util.now () < deadline do
      Unix.sleepf 0.005
    done;
    if not (exited s) then begin
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      while not (exited s) do
        Unix.sleepf 0.005
      done
    end
  end;
  Option.get s.status

let log_tail s =
  match Util.read_file s.log with
  | text ->
    let n = String.length text in
    String.escaped (String.sub text (max 0 (n - 400)) (min n 400))
  | exception Sys_error _ -> "(no server log)"

let stop_all () = List.iter (fun s -> ignore (stop ~grace:10. s)) !live_servers

(* --- one connection --- *)

exception Broken of string

type conn = { fd : Unix.file_descr; rd : P.reader }

(* A request that gets no reply within this many seconds fails. *)
let request_timeout = 5.

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO request_timeout;
  { fd; rd = P.reader ~max_frame:(1 lsl 24) fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One round trip, with a span around each step of the client side:
   encode, send, wait (the server's share: its parse, the index or
   store, its encode, and the socket both ways), parse. *)
let call c ~root ~req (r : P.request) =
  let line = Span.wrap "protocol.encode" ~parent:root ~req (fun _ -> P.request_to_string r) in
  Span.wrap "socket.send" ~parent:root ~req (fun _ -> P.write_frame c.fd line);
  match Span.wrap "socket.wait" ~parent:root ~req (fun _ -> P.read_frame c.rd) with
  | `Frame f -> (
    match Span.wrap "protocol.parse" ~parent:root ~req (fun _ -> P.parse_response f) with
    | Ok resp -> resp
    | Error e -> raise (Broken ("unparseable reply: " ^ e)))
  | `Eof -> raise (Broken "connection closed")
  | `Too_long -> raise (Broken "overlong reply")

let spawn ~dsdg ~dir ~sock =
  let log_path = dir ^ ".log" in
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* server defaults (worst-case/fm, --jobs 0, --readers 0) but for
     --sync never: the shared host's fsync latency varies several-fold
     from one run to the next, see NOTES.md *)
  let pid = Unix.create_process dsdg [| dsdg; "serve"; dir; "--socket"; sock; "--sync"; "never" |] null log log in
  Unix.close log;
  Unix.close null;
  let s = { pid; sock; log = log_path; status = None } in
  live_servers := s :: !live_servers;
  s

(* Poll until the socket accepts a connection. *)
let wait_ready s =
  let deadline = Util.now () +. 120. in
  let rec go () =
    if exited s then fail "server exited during start-up: %s" (log_tail s);
    if Util.now () > deadline then fail "server not ready after 120 s";
    match connect s.sock with
    | c -> close_conn c
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* --- the preloaded store --- *)

(* Insert the preload through the store's group-commit path (256
   documents per WAL append), checkpoint, close. *)
let build_preload dir docs =
  let d, _ = Durable.open_ ~dir () in
  let n = Array.length docs in
  let i = ref 0 in
  while !i < n do
    let k = min 256 (n - !i) in
    ignore (Durable.apply_batch d (List.init k (fun j -> T.Insert docs.(!i + j))));
    i := !i + k
  done;
  Durable.checkpoint d;
  Durable.close d

(* Bits per live symbol of the index a server restores from [dir]. *)
let store_bits dir =
  let idx, _ = Dsdg_store.Recovery.open_or_recover ~read_only:true ~dir () in
  let b = float_of_int (Di.space_bits idx) /. float_of_int (Di.total_symbols idx) in
  Di.close idx;
  b

(* --- the closed-loop clients --- *)

(* One acknowledged request, for the in-process replay of the traced
   run: [sid] is the id the server assigned to an insert. *)
type entry = { e_verb : Gen.verb; e_op : T.op; e_sid : int; e_ack : float }

type client = {
  idx : int;
  st : Random.State.t;
  own : (int, string) Hashtbl.t;  (** this client's live documents *)
  mutable own_ids : int array;
  mutable own_n : int;
  mutable maybe : int;  (** writes whose outcome is unknown (no reply) *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (** replies that contradict the model *)
  mutable log : entry list;
  lat : (Gen.verb * Util.samples) list;
  mutable hits : int;
}

let new_client seed idx =
  {
    idx;
    st = Gen.rng seed (1000 + idx);
    own = Hashtbl.create 256;
    own_ids = Array.make 256 0;
    own_n = 0;
    maybe = 0;
    attempted = 0;
    failed = 0;
    wrong = [];
    log = [];
    lat = List.map (fun v -> (v, Util.samples ())) Gen.verbs;
    hits = 0;
  }

let add_own c id text =
  if c.own_n = Array.length c.own_ids then c.own_ids <- Array.append c.own_ids (Array.make c.own_n 0);
  c.own_ids.(c.own_n) <- id;
  c.own_n <- c.own_n + 1;
  Hashtbl.replace c.own id text

let take_own c =
  let k = Random.State.int c.st c.own_n in
  let id = c.own_ids.(k) in
  c.own_ids.(k) <- c.own_ids.(c.own_n - 1);
  c.own_n <- c.own_n - 1;
  Hashtbl.remove c.own id;
  id

let next_req = ref 0

(* Live documents each client keeps before its writes alternate. *)
let backlog = 100

(* Clients park between requests while a calibration probe runs, so
   the probe has the host to itself (the server idles with its clients)
   and no request's latency includes it. *)
type gate = { mu : Mutex.t; cv : Condition.t; mutable want : bool; mutable parked : int; mutable left : int }

let gate () = { mu = Mutex.create (); cv = Condition.create (); want = false; parked = 0; left = 0 }

(* A client between two requests. *)
let park g =
  if g.want then begin
    Mutex.lock g.mu;
    g.parked <- g.parked + 1;
    Condition.broadcast g.cv;
    while g.want do
      Condition.wait g.cv g.mu
    done;
    g.parked <- g.parked - 1;
    Mutex.unlock g.mu
  end

(* A client that has stopped stays parked. *)
let leave g =
  Mutex.lock g.mu;
  g.parked <- g.parked + 1;
  g.left <- g.left + 1;
  Condition.broadcast g.cv;
  Mutex.unlock g.mu

(* One probe, once all [n] clients are parked; none once all have
   stopped. *)
let probe_parked g cal n =
  Mutex.lock g.mu;
  g.want <- true;
  while g.parked < n do
    Condition.wait g.cv g.mu
  done;
  Mutex.unlock g.mu;
  if g.left < n then Calib.take cal;
  Mutex.lock g.mu;
  g.want <- false;
  Condition.broadcast g.cv;
  Mutex.unlock g.mu

(* Run one client until [stop ()]. [preload] ids are 0..n-1 and are
   never deleted, so extracts from them are checked exactly; a client's
   own documents are touched by no one else, so those are checked too. *)
let client_loop ~sock ~mix ~preload ~keep_log ~stop ~gate c =
  let conn = ref None in
  let get () =
    match !conn with
    | Some x -> x
    | None ->
      let x = connect sock in
      conn := Some x;
      x
  in
  let drop () =
    Option.iter close_conn !conn;
    conn := None
  in
  while not (stop ()) do
    park gate;
    (* A write inserts until the client owns [backlog] live documents,
       then deletes a random one of them, so writes alternate and every
       seed's collection follows the same size path. *)
    let verb =
      match Gen.pick_verb c.st mix with
      | Gen.Insert | Gen.Delete -> if c.own_n < backlog then Gen.Insert else Gen.Delete
      | v -> v
    in
    let extract_target () =
      if c.own_n > 0 && Random.State.bool c.st then
        let id = c.own_ids.(Random.State.int c.st c.own_n) in
        (id, Hashtbl.find c.own id)
      else
        let id = Random.State.int c.st (Array.length preload) in
        (id, preload.(id))
    in
    let op, expect =
      match verb with
      | Gen.Insert -> (T.Insert (Gen.write_doc c.st), "")
      | Gen.Delete -> (T.Delete (take_own c), "")
      | Gen.Count -> (T.Count (Gen.pattern c.st preload), "")
      | Gen.Search -> (T.Search (Gen.pattern c.st preload), "")
      | Gen.Extract ->
        let doc, text = extract_target () in
        let len = 1 + Random.State.int c.st (min 32 (String.length text)) in
        let off = Random.State.int c.st (String.length text - len + 1) in
        (T.Extract { doc; off; len }, String.sub text off len)
    in
    incr next_req;
    let req = !next_req in
    c.attempted <- c.attempted + 1;
    let t0 = Util.now () in
    let root = Span.start ("req." ^ Gen.verb_name verb) ~parent:0 ~req in
    let outcome =
      match call (get ()) ~root ~req (P.Op op) with
      | resp -> Ok resp
      | exception (Unix.Unix_error _ as e) ->
        drop ();
        Error (Printexc.to_string e)
      | exception Broken why ->
        drop ();
        Error why
    in
    Span.finish root;
    let t1 = Util.now () in
    let ok sid =
      Util.add ~at:t1 (List.assoc verb c.lat) (Util.us_of (t1 -. t0));
      if keep_log then c.log <- { e_verb = verb; e_op = op; e_sid = sid; e_ack = t1 } :: c.log
    in
    let failed () = c.failed <- c.failed + 1 in
    match (op, outcome) with
    (* the wire spells ids as plain integers *)
    | T.Insert text, Ok (P.Id id | P.Int id) ->
      add_own c id text;
      ok id
    (* the wire spells booleans as 1 and 0 *)
    | T.Delete _, Ok (P.Bool true | P.Int 1) -> ok (-1)
    | T.Delete id, Ok (P.Bool false | P.Int 0) ->
      failed ();
      c.wrong <- Printf.sprintf "delete of owned id %d answered false" id :: c.wrong
    | (T.Count _, Ok (P.Int _)) -> ok (-1)
    | (T.Search _, Ok (P.Hits l)) ->
      c.hits <- c.hits + List.length l;
      ok (-1)
    | T.Extract { doc; _ }, Ok r ->
      if r = P.Text expect then ok (-1)
      else begin
        failed ();
        c.wrong <- Printf.sprintf "extract from doc %d: wrong text" doc :: c.wrong
      end
    | (T.Insert _ | T.Delete _), Error e ->
      if c.failed < 3 then Util.log "client %d: %s failed: %s" c.idx (Gen.verb_name verb) e;
      (* the write may or may not have been applied *)
      c.maybe <- c.maybe + 1;
      failed ()
    | _, r ->
      if c.failed < 3 then
        Util.log "client %d: %s failed: %s" c.idx (Gen.verb_name verb)
          (match r with Ok resp -> P.response_to_string resp | Error e -> e);
      failed ()
  done;
  Option.iter close_conn !conn

(* --- one served pass --- *)

type pass = {
  p_clients : client list;
  p_elapsed : float;  (** seconds, probes excluded *)
  p_cal : Calib.t;  (** the probes of the pass *)
  p_cpu_s : float;
  p_ctx : int;
  p_rss_mb : float;
}

let lat_of clients verb = Util.merge (List.map (fun c -> List.assoc verb c.lat) clients)
let reads clients = Util.merge (List.map (lat_of clients) [ Gen.Count; Gen.Search; Gen.Extract ])
let writes clients = Util.merge (List.map (lat_of clients) [ Gen.Insert; Gen.Delete ])

(* Run both clients against [srv] for [seconds], then on until every
   verb has the samples its reported percentiles need (at most another
   [seconds]). Fails if the server dies mid-run. *)
let run_pass ~srv ~seed ~mix ~preload ~seconds ~keep_log =
  let clients = [ new_client seed 0; new_client seed 1 ] in
  let t0 = Util.now () in
  let deadline = t0 +. seconds and hard = t0 +. (2. *. seconds) in
  let n_of v = List.fold_left (fun a c -> a + Util.count (List.assoc v c.lat)) 0 clients in
  let enough () =
    List.for_all (fun v -> n_of v >= Util.needed 0.5) Gen.verbs
    && n_of Gen.Count + n_of Gen.Search + n_of Gen.Extract >= Util.needed 0.95
    && n_of Gen.Insert + n_of Gen.Delete >= Util.needed 0.95
  in
  let dead = ref false in
  let stop () =
    !dead
    ||
    let t = Util.now () in
    t >= hard || (t >= deadline && enough ())
  in
  let cpu0 = Util.cpu_s srv.pid and ctx0 = Util.ctx_switches srv.pid in
  let gate = gate () and cal = Calib.create () in
  let threads =
    List.map
      (fun c ->
        Thread.create
          (fun () ->
            Fun.protect ~finally:(fun () -> leave gate) (fun () ->
                client_loop ~sock:srv.sock ~mix ~preload ~keep_log ~stop ~gate c))
          ())
      clients
  in
  let all_done = ref false in
  (* watches the server, and runs a probe every [Calib.every] seconds *)
  let watcher =
    Thread.create
      (fun () ->
        while not !all_done do
          if exited srv then dead := true;
          Thread.delay Calib.every;
          if not !all_done then probe_parked gate cal (List.length clients)
        done)
      ()
  in
  List.iter Thread.join threads;
  let elapsed = Util.now () -. t0 in
  all_done := true;
  Thread.join watcher;
  if !dead || exited srv then fail "the server process died mid-run: %s" (log_tail srv);
  if not (enough ()) then
    fail "too few samples after %.0f s: %s" elapsed
      (String.concat ", " (List.map (fun v -> Printf.sprintf "%s %d" (Gen.verb_name v) (n_of v)) Gen.verbs));
  {
    p_clients = clients;
    p_elapsed = elapsed -. cal.Calib.paused;
    p_cal = cal;
    p_cpu_s = Util.cpu_s srv.pid -. cpu0;
    p_ctx = Util.ctx_switches srv.pid - ctx0;
    p_rss_mb = Util.peak_rss_mb ~pid:(string_of_int srv.pid) ();
  }

let pass_ops p = List.fold_left (fun a c -> a + c.attempted - c.failed) 0 p.p_clients
let pass_attempted p = List.fold_left (fun a c -> a + c.attempted) 0 p.p_clients
let pass_failed p = List.fold_left (fun a c -> a + c.failed) 0 p.p_clients

(* The acknowledged requests of both clients, in acknowledgment order. *)
let pass_log p =
  List.concat_map (fun c -> c.log) p.p_clients |> List.sort (fun a b -> compare a.e_ack b.e_ack)

(* --- correctness gate --- *)

(* After the drain, reopen the store and compare it with the model: the
   preload plus each client's live documents, and the count of every
   probe pattern. A write that got no reply leaves the model unsure of
   one document; then only the documents the model is sure of, and the
   live count within the unsure margin, are checked. *)
let check_store ~dir ~preload ~probes clients =
  let idx, _ = Dsdg_store.Recovery.open_or_recover ~read_only:true ~dir () in
  let errs = ref (List.concat_map (fun c -> c.wrong) clients) in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let check id text =
    if Di.extract idx ~doc:id ~off:0 ~len:(String.length text) <> Some text then
      err "document %d missing or altered" id
  in
  Array.iteri check preload;
  List.iter (fun c -> Hashtbl.iter check c.own) clients;
  let model_n = Array.length preload + List.fold_left (fun a c -> a + c.own_n) 0 clients in
  let unsure = List.fold_left (fun a c -> a + c.maybe) 0 clients in
  if abs (Di.doc_count idx - model_n) > unsure then err "live documents: %d, model has %d" (Di.doc_count idx) model_n;
  if unsure = 0 then
    List.iter
      (fun p ->
        let want =
          Array.fold_left (fun a d -> a + Gen.occurrences p d) 0 preload
          + List.fold_left (fun a c -> Hashtbl.fold (fun _ d a -> a + Gen.occurrences p d) c.own a) 0 clients
        in
        let got = Di.count idx p in
        if got <> want then err "count %S: %d, model has %d" p got want)
      probes;
  Di.close idx;
  !errs
