(* Wire protocol: newline-framed text over the Trace op grammar;
   documented in protocol.mli and DESIGN.md section 11. *)

module Trace = Dsdg_check.Trace

type request = Op of Trace.op | Stats | Ping | Quit | Repl of { stream : string; from : int }

let parse_request line =
  match line with
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "quit" -> Ok Quit
  | _ when String.length line >= 5 && String.sub line 0 5 = "repl " -> (
    match String.split_on_char ' ' line with
    | [ "repl"; stream; from ] when stream <> "" -> (
      match int_of_string_opt from with
      | Some from when from >= 0 -> Ok (Repl { stream; from })
      | _ -> Error (Printf.sprintf "malformed repl position %S" from))
    | _ -> Error "malformed repl request (want: repl <stream> <from>)")
  | _ -> (
    match Trace.parse_op line with
    | Ok op -> Ok (Op op)
    | Error reason -> Error reason)

let request_to_string = function
  | Op op -> Trace.op_to_string op
  | Stats -> "stats"
  | Ping -> "ping"
  | Quit -> "quit"
  | Repl { stream; from } -> Printf.sprintf "repl %s %d" stream from

type response =
  | Id of int
  | Bool of bool
  | Int of int
  | Hits of (int * int) list
  | Text of string
  | No_text
  | Stats_of of (string * int) list
  | Pong
  | Bye
  | Err of string
  | Rec of int * string
  | Hb of { bound : int; epoch : int }
  | Snap of { serial : int; chunks : int }
  | Chunk of string

(* [Id] and [Int] share the "ok N" spelling deliberately: the client
   knows which verb it sent, so the wire does not repeat it. *)
(* Decimal digits straight into the buffer: search replies carry ~1k
   pairs, and [Printf.sprintf] or [string_of_int] (a C format call and a
   fresh string each) cost 5-7x as much per pair.  Same bytes as "%d". *)
let rec add_nat b n =
  if n >= 10 then add_nat b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n >= 0 then add_nat b n else Buffer.add_string b (string_of_int n)

let response_to_string = function
  | Id id -> Printf.sprintf "ok %d" id
  | Bool b -> if b then "ok 1" else "ok 0"
  | Int n -> Printf.sprintf "ok %d" n
  | Hits l ->
    (* The bytes of "ok hits %d" and then " %d %d" per pair. *)
    let b = Buffer.create (16 + (12 * List.length l)) in
    Buffer.add_string b "ok hits ";
    add_int b (List.length l);
    List.iter
      (fun (d, o) ->
        Buffer.add_char b ' ';
        add_int b d;
        Buffer.add_char b ' ';
        add_int b o)
      l;
    Buffer.contents b
  | Text s -> Printf.sprintf "ok text %S" s
  | No_text -> "none"
  | Stats_of kvs ->
    String.concat " " ("ok stats" :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)
  | Pong -> "ok pong"
  | Bye -> "ok bye"
  | Err reason -> Printf.sprintf "err %S" reason
  | Rec (serial, body) -> Printf.sprintf "rec %d %s" serial body
  | Hb { bound; epoch } -> Printf.sprintf "hb %d %d" bound epoch
  | Snap { serial; chunks } -> Printf.sprintf "snap %d %d" serial chunks
  | Chunk payload -> Printf.sprintf "chunk %S" payload

let parse_response line =
  let fields = String.split_on_char ' ' line in
  let int_field s ~what =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "expected an integer %s, got %S" what s)
  in
  match fields with
  | [ "none" ] -> Ok No_text
  | [ "ok"; "pong" ] -> Ok Pong
  | [ "ok"; "bye" ] -> Ok Bye
  | "rec" :: serial :: _ :: _ -> (
    match int_of_string_opt serial with
    | None -> Error (Printf.sprintf "malformed record serial %S" serial)
    | Some s ->
      (* the body is the raw record line and may contain spaces *)
      let prefix = 4 + String.length serial + 1 in
      Ok (Rec (s, String.sub line prefix (String.length line - prefix))))
  | [ "hb"; bound; epoch ] -> (
    match (int_of_string_opt bound, int_of_string_opt epoch) with
    | Some bound, Some epoch -> Ok (Hb { bound; epoch })
    | _ -> Error (Printf.sprintf "malformed heartbeat %S" line))
  | [ "snap"; serial; chunks ] -> (
    match (int_of_string_opt serial, int_of_string_opt chunks) with
    | Some serial, Some chunks -> Ok (Snap { serial; chunks })
    | _ -> Error (Printf.sprintf "malformed snapshot header %S" line))
  | "chunk" :: _ -> (
    try Ok (Scanf.sscanf line "chunk %S%!" (fun s -> Chunk s))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error "malformed snapshot chunk")
  | [ "ok"; n ] -> Result.map (fun n -> Int n) (int_field n ~what:"value")
  | "ok" :: "hits" :: n :: rest -> (
    match int_field n ~what:"hit count" with
    | Error _ as e -> e
    | Ok n ->
      let rec pairs acc = function
        | [] -> if List.length acc = n then Ok (Hits (List.rev acc)) else Error "hit count mismatch"
        | d :: o :: rest -> (
          match (int_of_string_opt d, int_of_string_opt o) with
          | Some d, Some o -> pairs ((d, o) :: acc) rest
          | _ -> Error (Printf.sprintf "malformed hit pair %S %S" d o))
        | [ _ ] -> Error "odd number of hit fields"
      in
      pairs [] rest)
  | "ok" :: "text" :: _ -> (
    (* the quoted payload may contain spaces: re-scan past the prefix *)
    try Ok (Scanf.sscanf line "ok text %S%!" (fun s -> Text s))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error "malformed quoted text")
  | "ok" :: "stats" :: kvs ->
    let rec go acc = function
      | [] -> Ok (Stats_of (List.rev acc))
      | kv :: rest -> (
        match String.index_opt kv '=' with
        | Some i -> (
          let k = String.sub kv 0 i and v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match int_of_string_opt v with
          | Some v -> go ((k, v) :: acc) rest
          | None -> Error (Printf.sprintf "malformed stat %S" kv))
        | None -> Error (Printf.sprintf "malformed stat %S" kv))
    in
    go [] kvs
  | "err" :: _ -> (
    try Ok (Scanf.sscanf line "err %S%!" (fun s -> Err s))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Error "malformed error reason")
  | _ -> Error (Printf.sprintf "unrecognized response %S" line)

(* --- bounded frame reader --- *)

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  buf : Bytes.t;  (* staging for one read(2) *)
  acc : Buffer.t;  (* bytes of the frame under assembly *)
  mutable pending : string;  (* bytes read past the last newline *)
  mutable poisoned : bool;  (* an overlong frame destroyed framing *)
}

let reader ~max_frame fd =
  if max_frame < 1 then invalid_arg "Protocol.reader: max_frame < 1";
  {
    fd;
    max_frame;
    buf = Bytes.create (min 65536 (max 512 max_frame));
    acc = Buffer.create 256;
    pending = "";
    poisoned = false;
  }

let read_frame r =
  if r.poisoned then `Too_long
  else begin
    let result = ref None in
    (* consume [chunk]; returns the leftover after the first newline *)
    let consume chunk =
      match String.index_opt chunk '\n' with
      | Some nl ->
        Buffer.add_substring r.acc chunk 0 nl;
        r.pending <- String.sub chunk (nl + 1) (String.length chunk - nl - 1);
        let frame = Buffer.contents r.acc in
        Buffer.clear r.acc;
        if String.length frame > r.max_frame then begin
          r.poisoned <- true;
          result := Some `Too_long
        end
        else result := Some (`Frame frame)
      | None ->
        Buffer.add_string r.acc chunk;
        r.pending <- "";
        if Buffer.length r.acc > r.max_frame then begin
          r.poisoned <- true;
          result := Some `Too_long
        end
    in
    if r.pending <> "" then consume r.pending;
    while !result = None do
      let n = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
      if n = 0 then begin
        (* mid-frame EOF: the partial frame is torn, drop it *)
        Buffer.clear r.acc;
        result := Some `Eof
      end
      else consume (Bytes.sub_string r.buf 0 n)
    done;
    match !result with Some x -> x | None -> assert false
  end

let write_frame fd s =
  let line = s ^ "\n" in
  let len = String.length line in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd line !pos (len - !pos)
  done
