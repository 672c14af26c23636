(* Workload [theorem1]: a closed loop on one thread.  Each op constructs
   and audits the n - 1 witness for one n = 3 instance — racing or
   racing-rand, in a seed-driven order:

     Theorem.theorem1_escalate on a fresh oracle
     Cert.of_theorem + Cert.to_string
     Microcheck.check_string
     Revisionist.construct + Revisionist.verify

   Both engines must claim bound 2 and the certificate bytes must equal
   the instance's reference bytes, built during set-up.  The valency
   oracle does almost all the work. *)

open Common
open Ts_model
module Theorem = Ts_core.Theorem
module Cert = Ts_cert.Cert
module Microcheck = Ts_microcheck.Microcheck
module Revisionist = Ts_revisionist.Revisionist

let n = 3
let names = [| "racing"; "racing-rand" |]

(* Per-layer metrics this workload owns.  Counts are per op pair: one
   racing plus one racing-rand construction. *)
let layers =
  [
    ("theorem1.latency_p90_ms", "ms");
    ("valency.nodes_expanded", "count");
    ("valency.searches", "count");
    ("valency.memo_hit_ratio", "ratio");
    ("valency.search_self_ms", "ms");
    ("valency.peak_frontier", "count");
    ("theorem.construct_ms", "ms");
    ("lemmas.self_ms", "ms");
    ("revisionist.construct_ms", "ms");
    ("revisionist.private_steps", "count");
    ("revisionist.revisions", "count");
    ("cert.build_ms", "ms");
    ("cert.bytes", "bytes");
    ("microcheck.ms", "ms");
  ]

(* The Lemmas walk's own spans: everything the construction records
   except the oracle's [valency.search]. *)
let lemma_spans =
  [ "theorem1"; "lemma1"; "lemma2"; "lemma3"; "lemma4"; "lemma4.round";
    "block_write"; "covering_extension"; "solo_deciding" ]

type steps = {
  construct : float;
  cert : float;
  micro : float;
  revisionist : float;
  cert_bytes : string;
  private_steps : int;
  revisions : int;
}

(* One op on [proto]; [Error] says which check failed. *)
let op_on (type s) (proto : s Protocol.t) =
  let t0 = now () in
  match fst (Theorem.theorem1_escalate proto ~initial_horizon:(10 * n)) with
  | Theorem.Partial (stop, _) ->
    Error (Format.asprintf "theorem1 partial: %a" Theorem.pp_stop stop)
  | Theorem.Complete tc -> (
    let t1 = now () in
    let bytes = Cert.to_string (Cert.of_theorem proto tc) in
    let t2 = now () in
    let micro = Microcheck.check_string bytes in
    let t3 = now () in
    let rev = Revisionist.construct proto in
    let t4 = now () in
    let lemmas_bound = (Ts_core.Outcome.of_theorem tc).Ts_core.Outcome.bound in
    match (micro, rev) with
    | Error e, _ -> Error ("micro-check rejected: " ^ e)
    | _, Revisionist.Partial (stop, _) ->
      Error (Format.asprintf "revisionist partial: %a" Revisionist.pp_stop stop)
    | Ok (), Revisionist.Complete rc -> (
      match Revisionist.verify rc proto with
      | Error e -> Error ("revisionist verify: " ^ e)
      | Ok () when lemmas_bound <> n - 1 || rc.Revisionist.bound <> n - 1 ->
        Error
          (Printf.sprintf "bounds %d (lemmas) / %d (revisionist), want %d"
             lemmas_bound rc.Revisionist.bound (n - 1))
      | Ok () ->
        Ok
          {
            construct = t1 -. t0;
            cert = t2 -. t1;
            micro = t3 -. t2;
            revisionist = t4 -. t3;
            cert_bytes = bytes;
            private_steps = rc.Revisionist.private_steps;
            revisions = rc.Revisionist.revisions;
          }))

let op i =
  match Ts_protocols.Catalog.find names.(i) ~n with
  | Ok (Protocol.Packed proto) -> op_on proto
  | Error e -> Error e

(* Seed-driven order with both instances equally often: each consecutive
   pair of ops runs one of each, the seed choosing which goes first. *)
let order seed =
  let rng = Random.State.make [| seed |] in
  let first = ref 0 in
  fun k ->
    if k mod 2 = 0 then first := Random.State.int rng 2;
    (!first + k) mod 2

(* The oracle counters one op spent, read from the armed registry. *)
type oracle = { nodes : int; searches : int; memo_hits : int; memo_misses : int }

let oracle_counters () =
  let s = Ts_obs.Obs.Metrics.snapshot () in
  { nodes = counter s "valency.nodes_expanded";
    searches = counter s "valency.searches";
    memo_hits = counter s "valency.memo_hits";
    memo_misses = counter s "valency.memo_misses" }

let oracle_diff a b =
  { nodes = a.nodes - b.nodes; searches = a.searches - b.searches;
    memo_hits = a.memo_hits - b.memo_hits;
    memo_misses = a.memo_misses - b.memo_misses }

type phase = {
  latencies : float list;
  wall_latencies : float list;  (* unscaled *)
  ops : int;
  failures : int;
  elapsed : float;
  per_instance : steps list array;
  oracle : oracle list array;  (* traced only: per op *)
}

let run_phase ~references ~seconds ~min_ops seed =
  let pick = order seed in
  let results = ref [] in
  let armed = Ts_obs.Obs.Metrics.armed () in
  let intervals =
    closed_loop ~seconds ~min_ops (fun k ->
        let i = pick k in
        let before = if armed then Some (oracle_counters ()) else None in
        let r = op i in
        let o = Option.map (fun b -> oracle_diff (oracle_counters ()) b) before in
        results := (i, r, o) :: !results)
  in
  let latencies = List.map (fun (t0, t1) -> scaled t0 t1) intervals in
  let failures = ref 0 in
  let per_instance = Array.make (Array.length names) [] in
  let oracle = Array.make (Array.length names) [] in
  List.iter2
    (fun (i, r, o) ((t0, t1), lat) ->
      Option.iter (fun o -> oracle.(i) <- o :: oracle.(i)) o;
      (* step times at the reference speed, like the op's *)
      let f = lat /. (t1 -. t0) in
      match r with
      | Ok s when s.cert_bytes = references.(i) ->
        per_instance.(i) <-
          { s with construct = s.construct *. f; cert = s.cert *. f;
                   micro = s.micro *. f; revisionist = s.revisionist *. f }
          :: per_instance.(i)
      | Ok _ ->
        incr failures;
        Printf.eprintf "theorem1: %s certificate differs from reference\n%!"
          names.(i)
      | Error e ->
        incr failures;
        Printf.eprintf "theorem1: %s: %s\n%!" names.(i) e)
    (List.rev !results)
    (List.combine intervals latencies);
  { latencies; wall_latencies = List.map (fun (t0, t1) -> t1 -. t0) intervals;
    ops = List.length intervals; failures = !failures;
    elapsed = sum latencies; per_instance; oracle }

let e2e_of ph setup_s =
  [
    wall
      (metric "throughput_ops_s" "1/s"
         (throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed))
      (throughput ~ops:ph.ops ~failed:ph.failures (sum ph.wall_latencies));
    wall
      (latency "latency_p50_ms" (Array.of_list ph.latencies) 50.)
      (median ph.wall_latencies *. 1000.);
    metric "setup_s" "s" setup_s
      ~note:"median of 3: catalog lookup + reference witness per instance";
  ]

let layer_of ~plain ~traced:(ph, events, snap) =
  (* an exact count per op pair: the sum over the two instances of the
     value every op of that instance gave *)
  let pair name values_of =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i iname -> exact (iname ^ " " ^ name) (values_of i)) names)
  in
  let oracle name f = pair name (fun i -> List.map f ph.oracle.(i)) in
  let steps name f =
    pair name (fun i -> List.map f (plain.per_instance.(i) @ ph.per_instance.(i)))
  in
  let nodes = oracle "valency.nodes_expanded" (fun o -> o.nodes) in
  let searches = oracle "valency.searches" (fun o -> o.searches) in
  let hits = oracle "valency.memo_hits" (fun o -> o.memo_hits) in
  let misses = oracle "valency.memo_misses" (fun o -> o.memo_misses) in
  let all_steps = List.concat (Array.to_list plain.per_instance) in
  let step_ms f = median (List.map f all_steps) *. 1000. in
  let table = self_times (spans_of events) in
  let per_op total = total *. 1000. /. float (max 1 ph.ops) in
  ( [
      latency "theorem1.latency_p90_ms" (Array.of_list plain.latencies) 90.;
      metric "valency.nodes_expanded" "count" (float nodes);
      metric "valency.searches" "count" (float searches);
      metric "valency.memo_hit_ratio" "ratio" (ratio hits (hits + misses));
      metric "valency.search_self_ms" "ms"
        (per_op (self_of table [ "valency.search" ]));
      metric "valency.peak_frontier" "count"
        (float (gauge snap "valency.peak_frontier"));
      metric "theorem.construct_ms" "ms" (step_ms (fun s -> s.construct));
      metric "lemmas.self_ms" "ms" (per_op (self_of table lemma_spans));
      metric "revisionist.construct_ms" "ms" (step_ms (fun s -> s.revisionist));
      metric "revisionist.private_steps" "count"
        (float (steps "revisionist.private_steps" (fun s -> s.private_steps)));
      metric "revisionist.revisions" "count"
        (float (steps "revisionist.revisions" (fun s -> s.revisions)));
      metric "cert.build_ms" "ms" (step_ms (fun s -> s.cert));
      metric "cert.bytes" "bytes"
        (float (steps "cert.bytes" (fun s -> String.length s.cert_bytes)));
      metric "microcheck.ms" "ms" (step_ms (fun s -> s.micro));
    ],
    [ ("valency.nodes_expanded", nodes); ("valency.searches", searches);
      ("valency.memo_hits", hits) ] )

let run ~seed ~seconds ~trace =
  let references, setup_s =
    repeat 3 (fun () ->
        Array.mapi
          (fun i name ->
            match op i with
            | Ok s -> s.cert_bytes
            | Error e -> failwith (Printf.sprintf "theorem1 set-up: %s: %s" name e))
          names)
  in
  if not trace then begin
    let ph = run_phase ~references ~seconds ~min_ops:(min_samples 50.) seed in
    { attempted = ph.ops; failed = ph.failures; e2e = e2e_of ph setup_s;
      layer = []; exact = [] }
  end
  else begin
    let half = seconds /. 2. in
    let plain =
      run_phase ~references ~seconds:half ~min_ops:(min_samples 90.) seed
    in
    let ((ph, _, _) as tr) =
      traced (fun () -> run_phase ~references ~seconds:half ~min_ops:2 seed)
    in
    let layer, exact = layer_of ~plain ~traced:tr in
    let overhead =
      tracing_overhead
        ~plain:(throughput ~ops:plain.ops ~failed:plain.failures plain.elapsed)
        ~traced:(throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed)
    in
    { attempted = plain.ops + ph.ops; failed = plain.failures + ph.failures;
      e2e = []; layer = layer @ [ overhead ]; exact }
  end
