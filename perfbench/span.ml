(* In-memory spans for the traced run. Spans are recorded only around
   the benchmark's own calls into the layers (no code of the program is
   instrumented); they are kept in memory and written out at exit. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; mutable t1 : float }

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 1

(* [start name ~parent ~req] opens a span and returns its id (0 when
   tracing is off); [parent] 0 is a root. *)
let start name ~parent ~req =
  if not !on then 0
  else begin
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    spans := { id; parent; req; name; t0 = Util.now (); t1 = nan } :: !spans;
    Mutex.unlock lock;
    id
  end

let finish id =
  if id <> 0 then begin
    let t1 = Util.now () in
    Mutex.lock lock;
    (* the open span is almost always at the head of the list *)
    (match List.find_opt (fun s -> s.id = id) !spans with Some s -> s.t1 <- t1 | None -> ());
    Mutex.unlock lock
  end

let wrap name ~parent ~req f =
  let id = start name ~parent ~req in
  match f id with
  | r ->
    finish id;
    r
  | exception e ->
    finish id;
    raise e

(* Self time of each span: its duration minus the part its children
   cover (children of one span never overlap here). Returns samples of
   self time in microseconds, per span name. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.replace child s.parent ((try Hashtbl.find child s.parent with Not_found -> 0.) +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Float.is_nan s.t1) then begin
        let self = s.t1 -. s.t0 -. (try Hashtbl.find child s.id with Not_found -> 0.) in
        let smp =
          match Hashtbl.find_opt by_name s.name with
          | Some x -> x
          | None ->
            let x = Util.samples () in
            Hashtbl.replace by_name s.name x;
            x
        in
        Util.add smp (Util.us_of self)
      end)
    !spans;
  by_name

(* Write every span as one line: id parent req name start_us end_us. *)
let dump path =
  Util.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun s -> Printf.fprintf oc "%d %d %d %s %.3f %.3f\n" s.id s.parent s.req s.name (Util.us_of s.t0) (Util.us_of s.t1))
    (List.rev !spans);
  close_out oc
