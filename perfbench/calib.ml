(* Host-speed calibration.

   The benchmark host is a few vCPUs of a shared machine whose speed
   drifts by tens of percent, over seconds and over minutes, with no
   steal time visible to the guest: a fixed CPU loop, alone on the
   host, ran anywhere between 160 and 300 iterations per half second
   within one minute. Such drift moves every timing of a run together.
   So a timed phase interleaves short runs of a fixed reference kernel
   (probes), with nothing else running while a probe runs, and its
   timings are reported at a nominal host speed: each latency sample is
   divided by the slowness of the one-second window in which it
   completed, and a rate multiplied by the mean slowness over its
   operations, where slowness = ((median probe time in the window) /
   [nominal_us]) ** [sensitivity]. The raw figures and the run's
   median slowness are printed on the stamp line.

   The kernel is the benchmark's own code, so a change to the program
   moves the workload's times and not the probe's. *)

(* The kernel: random reads in a 64 KiB table, integer mixing and
   stores into a small table. It allocates nothing, so no garbage
   collection of the benchmark's own heap lands in a probe, and it runs
   once untimed before each timed run, so the table is in cache and the
   probe measures the core, not what the workload left in the caches.
   It is fixed: a change here changes every normalized figure. *)
let table = lazy (Array.init (1 lsl 13) (fun i -> (i * 0x9E3779B1) land 0x3FFFFFFF))

let scratch : int array = Array.make 1024 0
let sink = ref 0

let kernel () =
  let a = Lazy.force table in
  let mask = Array.length a - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let v = Array.unsafe_get a ((!x lxor !acc) land mask) in
    acc := !acc + (v lxor (v lsr 7));
    Array.unsafe_set scratch (i land 1023) !acc
  done;
  sink := !acc

(* The kernel's time, in microseconds, at the nominal host speed: its
   typical time on the 2-vCPU benchmark host. *)
let nominal_us = 300.

(* How much more than the probe the workloads' latencies move with the
   host's speed, as an exponent. Over one-second windows of six runs of
   each workload, the slope of log latency against log probe time was
   1.3-1.6 for the served and the graph reads (the probe's own noise
   biases such a slope low). Across the runs of two sets of ten seeds,
   1.5 left a third to a half of the spread that 1 did on `graph-churn`
   and about the same on `serve-read`; 2 and 2.5 over-corrected. *)
let sensitivity = 1.5

let factor probe_us = (probe_us /. nominal_us) ** sensitivity

(* One probe: the kernel's wall time, in microseconds, warm. *)
let probe () =
  kernel ();
  let t0 = Util.now () in
  kernel ();
  Util.us_of (Util.now () -. t0)

(* Interval between probes interleaved with a timed phase, and the
   window over which probes are pooled. *)
let every = 0.05
let window = 1.0

(* The probes of one timed phase. *)
type t = { t0 : float; probes : Util.samples; mutable paused : float  (** seconds spent probing *) }

let create () = { t0 = Util.now (); probes = Util.samples (); paused = 0. }

let take c =
  let t0 = Util.now () in
  Util.add c.probes (probe ());
  c.paused <- c.paused +. (Util.now () -. t0)

let median s = Util.median_f (Array.to_list (Array.sub s.Util.a 0 s.Util.n))

(* The run's median slowness. *)
let slowness c =
  if Util.count c.probes = 0 then Util.fail "no calibration probe was taken";
  factor (median c.probes)

(* Slowness at clock reading [at]: that of its window, or the run's
   when no probe fell in the window. *)
let slowness_at c =
  let win at = int_of_float ((at -. c.t0) /. window) in
  let by = Hashtbl.create 64 in
  for i = 0 to c.probes.Util.n - 1 do
    let k = win c.probes.Util.at.(i) in
    Hashtbl.replace by k (c.probes.Util.a.(i) :: (try Hashtbl.find by k with Not_found -> []))
  done;
  let per = Hashtbl.create 64 in
  Hashtbl.iter (fun k l -> Hashtbl.replace per k (factor (Util.median_f l))) by;
  let all = slowness c in
  fun at -> match Hashtbl.find_opt per (win at) with Some x -> x | None -> all

(* Latency samples at the nominal host speed. *)
let scale c s =
  let at = slowness_at c in
  let r = Util.samples () in
  for i = 0 to s.Util.n - 1 do
    Util.add ~at:s.Util.at.(i) r (s.Util.a.(i) /. at s.Util.at.(i))
  done;
  r

(* The factor that takes a rate over the operations [s] to the nominal
   host speed: their mean slowness. *)
let rate_factor c s =
  if s.Util.n = 0 then slowness c
  else begin
    let at = slowness_at c in
    let sum = ref 0. in
    for i = 0 to s.Util.n - 1 do
      sum := !sum +. at s.Util.at.(i)
    done;
    !sum /. float_of_int s.Util.n
  end

(* [f ()] with probes just before and after it: its result, its wall
   time in seconds and the host's slowness around it. *)
let around f =
  let c = create () in
  for _ = 1 to 15 do
    take c
  done;
  let r, dt = Util.time f in
  for _ = 1 to 15 do
    take c
  done;
  (r, dt, slowness c)
