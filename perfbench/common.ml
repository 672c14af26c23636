(* Measurement plumbing shared by the workloads: clocks, order
   statistics, process memory, span self time and the result line. *)

let now = Unix.gettimeofday

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* What one workload process reports.  [attempted]/[failed] count ops:
   an op fails when it errors, comes back partial, fails verification or
   differs from the reference bytes.  [e2e] comes from untraced timing,
   [layer] from the traced half of a [--trace 1] run. *)
type report = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;
  exact : (string * int) list;
      (* counters that must repeat exactly across runs of the same code *)
}

let sorted_of list =
  let a = Array.of_list list in
  Array.sort Float.compare a;
  a

(* A growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float n)))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (rank n p - 1))

(* Samples strictly beyond the [p]-th percentile: a percentile is only
   reported when at least ten lie beyond it. *)
let beyond n p = n - rank n p

let min_samples p =
  let rec go n = if beyond n p >= 10 then n else go (n + 1) in
  go 1

let median list = percentile (sorted_of list) 50.

let sum = List.fold_left ( +. ) 0.

(* Latency percentile of [samples] (seconds) in ms, its note stating the
   sample count and how many lie beyond it. *)
let latency name samples p =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  metric name "ms"
    (percentile a p *. 1000.)
    ~note:(Printf.sprintf "p%g of n=%d, %d beyond" p n (beyond n p))

(* [m] with the unscaled wall-clock figure [v] in its note. *)
let wall m v =
  let sep = if m.note = "" then "" else "; " in
  { m with note = Printf.sprintf "%s%swall %.6g" m.note sep v }

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* {1 Machine speed}

   The speed of a shared box drifts: on the 2-vCPU box this benchmark was
   tuned on, by up to 1.8x over tens of seconds as neighbours come and
   go.  So every reported time is scaled to a reference speed.  A fixed
   probe is timed between ops, and an interval's wall time is multiplied
   by [reference_probe_s / p], where [p] is the median of the probes taken
   around it.  The probe is the benchmark's own code, so no change to the
   program can move it: hash-table churn with allocation plus an
   open-addressing table in a preallocated array, both larger than L2.
   Those are the kinds of work the engines do, which is why it tracks
   their drift where a pure arithmetic loop does not. *)

let reference_probe_s = 0.008

let churn () =
  let h = Hashtbl.create 1024 in
  for k = 1 to 30_000 do
    Hashtbl.replace h (k * 7919) k
  done;
  let x = ref 0 in
  for k = 1 to 30_000 do
    x := !x + Hashtbl.find h (k * 7919)
  done;
  ignore (Sys.opaque_identity !x)

(* One table per probing domain, allocated at its first probe and reused,
   so a probe allocates no table of its own. *)
let tables = ref [||]

let table i =
  if i >= Array.length !tables then
    tables :=
      Array.init (i + 1) (fun j ->
          if j < Array.length !tables then !tables.(j)
          else Array.make (1 lsl 17) 0);
  !tables.(i)

let open_addressing table =
  let mask = Array.length table - 1 in
  Array.fill table 0 (Array.length table) 0;
  let rec slot k i =
    let v = table.(i) in
    if v = 0 || v = k then i else slot k ((i + 1) land mask)
  in
  let slot k = slot k ((k * 0x9E3779B1) lsr 7 land mask) in
  for k = 1 to 40_000 do
    table.(slot k) <- k
  done;
  let x = ref 0 in
  for k = 1 to 40_000 do
    x := !x + table.(slot k)
  done;
  ignore (Sys.opaque_identity !x)

(* (time, probe seconds), newest first *)
let probes = ref []

(* Times the probe on [width] domains at once (the caller's and
   [width - 1] spawned ones) and records their mean: a workload that
   keeps several domains busy is slowed by whichever vCPU is contended,
   so its probe spans as many. *)
let probe_now ?(width = 1) () =
  let run table () =
    let t0 = now () in
    churn ();
    open_addressing table;
    now () -. t0
  in
  let helpers =
    List.init (width - 1) (fun i -> Domain.spawn (run (table (i + 1))))
  in
  let mine = run (table 0) () in
  let all = mine :: List.map Domain.join helpers in
  probes := (now (), sum all /. float width) :: !probes

(* [t0, t1] in seconds at the reference speed: the probes taken within
   [window] seconds of it give the speed.  A lone probe is noisy and the
   drift moves over seconds, so several are pooled. *)
let window = 1.

let scaled t0 t1 =
  let near =
    List.filter_map
      (fun (t, p) ->
        if t >= t0 -. window && t <= t1 +. window then Some p else None)
      !probes
  in
  let p = if near = [] then reference_probe_s else median near in
  (t1 -. t0) *. reference_probe_s /. p

(* [repeat k f] runs the set-up [f] [k] times and returns the last value
   and the median scaled time; [before] runs untimed ahead of each. *)
let repeat ?(before = ignore) k f =
  let spans = ref [] and last = ref None in
  for _ = 1 to k do
    before ();
    probe_now ();
    let t0 = now () in
    last := Some (f ());
    spans := (t0, now ()) :: !spans
  done;
  probe_now ();
  (Option.get !last, median (List.map (fun (t0, t1) -> scaled t0 t1) !spans))

(* Closed loop on the calling domain: run [op k] for k = 0, 1, ... until
   [seconds] have passed and at least [min_ops] ops completed (so every
   reported percentile keeps ten samples beyond it), bounded by
   [hard_cap] seconds.  Probes the speed between ops, [width] domains
   wide.  Returns each op's wall interval, oldest first. *)
let closed_loop ?width ~seconds ~min_ops ?(hard_cap = 150.) op =
  let t_start = now () in
  let intervals = ref [] and count = ref 0 in
  while
    let elapsed = now () -. t_start in
    (elapsed < seconds || !count < min_ops) && elapsed < hard_cap
  do
    probe_now ?width ();
    let t0 = now () in
    op !count;
    intervals := (t0, now ()) :: !intervals;
    incr count
  done;
  probe_now ?width ();
  List.rev !intervals

(* {1 Span self time}

   A span's self time is its duration minus the part of it covered by its
   child spans (same domain, [parent] link), both scaled like every other
   time.  Spans never closed before the drain are ignored. *)

type span = {
  sname : string;
  sdomain : int;
  sparent : int;
  t_open : float;
  mutable t_close : float;
  mutable children : float;
}

type self_time = { self : float; count : int }

let spans_of events =
  let spans = Hashtbl.create 1024 in
  List.iter
    (function
      | Ts_obs.Obs.Span_open { id; parent; domain; name; t; _ } ->
        Hashtbl.replace spans id
          { sname = name; sdomain = domain; sparent = parent; t_open = t;
            t_close = nan; children = 0. }
      | Ts_obs.Obs.Span_close { id; t; _ } -> (
        match Hashtbl.find_opt spans id with
        | Some s -> s.t_close <- t
        | None -> ())
      | _ -> ())
    events;
  let closed = Hashtbl.create (Hashtbl.length spans) in
  Hashtbl.iter
    (fun id s -> if not (Float.is_nan s.t_close) then Hashtbl.replace closed id s)
    spans;
  Hashtbl.iter
    (fun _ s ->
      match Hashtbl.find_opt closed s.sparent with
      | Some p -> p.children <- p.children +. scaled s.t_open s.t_close
      | None -> ())
    closed;
  Hashtbl.fold (fun _ s acc -> s :: acc) closed []

(* Self time per span name. *)
let self_times spans =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = scaled s.t_open s.t_close in
      let prev =
        Option.value (Hashtbl.find_opt by_name s.sname)
          ~default:{ self = 0.; count = 0 }
      in
      Hashtbl.replace by_name s.sname
        { self = prev.self +. dur -. s.children; count = prev.count + 1 })
    spans;
  by_name

(* Summed self time (seconds) of the named spans. *)
let self_of table names =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt table n with Some st -> acc +. st.self | None -> acc)
    0. names

(* Run [f] with span tracing and metrics armed; returns its value, the
   drained events and the final metrics snapshot. *)
let traced f =
  Ts_obs.Obs.start_tracing ();
  Ts_obs.Obs.Metrics.start ();
  let finish () =
    let events = Ts_obs.Obs.stop_tracing () in
    (events, Ts_obs.Obs.Metrics.stop ())
  in
  match f () with
  | v ->
    let events, snap = finish () in
    (v, events, snap)
  | exception e ->
    ignore (finish ());
    raise e

let counter (snap : Ts_obs.Obs.Metrics.snapshot) name =
  Option.value (List.assoc_opt name snap.counters) ~default:0

let gauge (snap : Ts_obs.Obs.Metrics.snapshot) name =
  Option.value (List.assoc_opt name snap.gauges) ~default:0

let ratio a b = if b = 0 then 0. else float a /. float b

(* Verified ops per (scaled) second. *)
let throughput ~ops ~failed elapsed = float (ops - failed) /. elapsed

(* How much slower the traced half ran than the untraced one. *)
let tracing_overhead ~plain ~traced =
  metric "obs.tracing_overhead_pct" "%" ((plain /. traced -. 1.) *. 100.)
    ~note:"untraced vs traced throughput"

(* {1 Exact counters}

   Work counters that must repeat exactly, within a run and across runs of
   the same code.  A counter that takes a second value is reported, never
   averaged. *)

let nondeterminism : (string * int list) list ref = ref []

(* The value every sample gave; a second value is recorded in
   [nondeterminism] and the first one returned. *)
let exact name values =
  match List.sort_uniq compare values with
  | [] -> 0
  | [ v ] -> v
  | v :: _ as vs ->
    nondeterminism := (name, vs) :: !nondeterminism;
    v

(* {1 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s = Printf.sprintf "%S" s

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %14.6g %-6s %s\n" m.name m.value m.unit_ m.note)
    ms

(* The last line of stdout: the machine-readable result. *)
let print_result ~correct ~attempted ~failed ms =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)
