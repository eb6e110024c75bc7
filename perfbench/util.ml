(* Shared helpers: clock, sample sets and their percentiles, /proc
   readings, run directories and the result line. *)

(* Monotonic, nanosecond resolution: microsecond-scale operations must
   not read as the same few clock ticks on every run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let us_of s = s *. 1e6

(* A growable buffer of latency samples, in microseconds, each with
   the clock reading at which it completed. *)
type samples = { mutable a : float array; mutable at : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; at = Array.make 256 0.; n = 0 }

let add ?at s x =
  if s.n = Array.length s.a then begin
    s.a <- Array.append s.a (Array.make s.n 0.);
    s.at <- Array.append s.at (Array.make s.n 0.)
  end;
  s.a.(s.n) <- x;
  s.at.(s.n) <- (match at with Some t -> t | None -> now ());
  s.n <- s.n + 1

let count s = s.n

let merge l =
  let r = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add ~at:s.at.(i) r s.a.(i) done) l;
  r

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

exception Too_few of string

(* Nearest-rank percentile [p] in (0,1). A percentile is reported only
   when at least ten samples lie beyond it; otherwise [Too_few]. *)
let pct ?(what = "samples") s p =
  let n = s.n in
  let beyond = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || beyond < 10 then
    raise (Too_few (Printf.sprintf "%s: %d sample(s) leave %d beyond p%g" what n beyond (p *. 100.)));
  let a = sorted s in
  a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* Smallest sample count for which [pct] reports [p]. *)
let needed p = int_of_float (Float.ceil (10. /. (1. -. p))) + 1

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- /proc --- *)

(* Reads to EOF: /proc files report no length. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go [])

(* A [Key: value kB] field of a /proc status file, in kB. *)
let status_kb path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
        Scanf.sscanf (String.sub l (i + 1) (String.length l - i - 1)) " %d" (fun v -> Some v)
      | _ -> None)
    (read_lines path)

let peak_rss_mb ?(pid = "self") () =
  match status_kb (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM missing from /proc status"

(* utime + stime of a whole process (live and exited threads), seconds. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: fields resume after the last ')' *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* Context switches summed over the process's live threads. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let st = Printf.sprintf "%s/%s/status" dir tid in
      match status_kb st "voluntary_ctxt_switches", status_kb st "nonvoluntary_ctxt_switches" with
      | Some a, Some b -> acc + a + b
      | _ -> acc
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

(* --- files --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let copy_file src dst =
  let s = read_file src in
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let p = Filename.concat src e in
      if not (Sys.is_directory p) then copy_file p (Filename.concat dst e))
    (Sys.readdir src)

let file_size path = (Unix.stat path).Unix.st_size

(* Every run works in its own directory under [.perfbench/] of the
   checkout (relative, so socket paths stay short); the directory is
   removed on every exit path. *)
let run_root = ".perfbench"

let run_dir =
  lazy
    (let d =
       Printf.sprintf "%s/run-%d-%d" run_root (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1000.) mod 100_000_000)
     in
     mkdir_p d;
     d)

let scratch name = Filename.concat (Lazy.force run_dir) name

(* A scratch path with nothing left at it from an earlier pass. *)
let fresh name =
  let p = scratch name in
  rm_rf p;
  p

let cleanup_run_dir () = if Lazy.is_val run_dir then rm_rf (Lazy.force run_dir)

(* --- metrics and the result line --- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let json_string s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.m_name) (json_float m.m_value) (json_string m.m_unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted failed
    (String.concat ", " ms)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* A run that cannot be measured: reported, no result, exit 1. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt


