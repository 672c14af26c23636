(* Workload [search]: the E25 query — Explore.check_consensus on racing
   with n = 3, max_depth 40, all 8 binary input vectors and a fixed
   configuration cap — answered three ways per op:

     serial     Explore.check_consensus, one domain
     domains    the same with ~domains:2
     cluster    Coord.run with one Worker on a loopback ephemeral port

   An op is one query answered all three ways; it passes when the three
   result documents are byte-identical to the reference answer.  The seed
   orders the three legs within each op.  Explore's BFS, Ckey tables and
   solo probes do all the work; the valency oracle does none.  Two of the
   legs keep both domains busy, so the speed probe runs two wide. *)

open Common
open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Coord = Ts_cluster.Coord
module Worker = Ts_cluster.Worker

let protocol = "racing"
let n = 3
let max_depth = 40
let max_configs = 500

let params =
  { Coord.default_params with Coord.protocol; n; max_configs; max_depth }

let serial_answer ~domains =
  match Ts_protocols.Catalog.find protocol ~n with
  | Error e -> failwith e
  | Ok (Protocol.Packed proto) ->
    let r =
      Explore.check_consensus ~domains proto
        ~inputs_list:(Explore.binary_inputs n) ~max_configs ~max_depth
        ~solo_budget:params.Coord.solo_budget
        ~check_solo:params.Coord.check_solo
    in
    (Json.to_string (Ts_service.Response.explore_to_json r), r.Explore.stats)

(* The cluster peer, wrapped to count and time its RPCs; with [wire] set
   it also counts the bytes each way, re-serializing them, so that is
   done on one extra query outside the timed phases. *)
type rpc_tally = {
  mutable rpcs : int;
  mutable rpc_s : float;
  mutable wire_bytes : int;
  mutable wire : bool;
}

let tally = { rpcs = 0; rpc_s = 0.; wire_bytes = 0; wire = false }

(* Per-layer metrics this workload owns, per query. *)
let layers =
  [
    ("search.serial_check_s", "s");
    ("search.domains_check_s", "s");
    ("search.cluster_check_s", "s");
    ("explore.configs_explored", "count");
    ("explore.table_hit_ratio", "ratio");
    ("explore.solo_probes", "count");
    ("explore.vector_self_ms", "ms");
    ("explore.peak_frontier", "count");
    ("par.busy_ms.d0", "ms");
    ("par.busy_ms.d1", "ms");
    ("par.imbalance", "ratio");
    ("cluster.rpcs", "count");
    ("cluster.rpc_ms", "ms");
    ("cluster.coord_self_ms", "ms");
    ("cluster.wire_bytes", "bytes");
    ("cluster.expand_self_ms", "ms");
    ("cluster.ingest_self_ms", "ms");
    ("cluster.useful_ratio", "ratio");
    ("cluster.dup_hits", "count");
    ("cluster.steals", "count");
  ]

let wrap (p : Coord.peer) =
  {
    p with
    Coord.call =
      (fun doc ->
        let t0 = now () in
        let r = p.Coord.call doc in
        tally.rpc_s <- tally.rpc_s +. (now () -. t0);
        tally.rpcs <- tally.rpcs + 1;
        if tally.wire then begin
          let reply = match r with Ok d -> Json.to_string d | Error e -> e in
          tally.wire_bytes <-
            tally.wire_bytes + String.length (Json.to_string doc)
            + String.length reply
        end;
        r);
  }

let connect server =
  let p =
    Coord.tcp_peer ~wid:0 ~host:"127.0.0.1" ~port:(Worker.port server) ()
  in
  match p.Coord.call (Json.Obj [ ("op", Json.Str "cluster-ping") ]) with
  | Ok _ -> wrap p
  | Error e -> failwith ("search set-up: worker ping failed: " ^ e)

type leg = Serial | Domains | Cluster

let leg_name = function
  | Serial -> "serial"
  | Domains -> "domains"
  | Cluster -> "cluster"

(* One leg's result document, with the cluster's telemetry. *)
let answer peer = function
  | Serial -> (fst (serial_answer ~domains:1), None)
  | Domains -> (fst (serial_answer ~domains:2), None)
  | Cluster -> (
    match Coord.run params ~peers:[ peer ] with
    | Coord.Complete { result; telemetry } ->
      (Json.to_string result, Some telemetry)
    | Coord.Failed f ->
      ("failed: " ^ Json.to_string (Coord.failure_to_json f), None))

let legs_in_order rng =
  let a = [| Serial; Domains; Cluster |] in
  for i = 2 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type phase = {
  ops : int;
  failures : int;
  elapsed : float;
  latencies : float list;
  wall_latencies : float list;  (* unscaled *)
  leg_times : (leg * float list) list;
  windows : (leg * float * float) list;  (* when each leg ran *)
  telemetry : Json.t list;  (* one per cluster leg *)
  cluster_rpcs : (float * float * int * float) list;
      (* per cluster leg: its interval, RPC count and wall time in RPCs *)
}

let run_phase ~peer ~reference ~seconds ~min_ops rng =
  let failures = ref 0 and legs = ref [] and per_op = ref [] in
  let telemetry = ref [] and rpcs = ref [] in
  let intervals =
    closed_loop ~width:2 ~seconds ~min_ops (fun _ ->
        let ok = ref true and mine = ref [] in
        Array.iter
          (fun leg ->
            probe_now ~width:2 ();
            let rpcs0 = tally.rpcs and rpc_s0 = tally.rpc_s in
            let t0 = now () in
            let doc, tele = answer peer leg in
            let t1 = now () in
            mine := (leg, t0, t1) :: !mine;
            if leg = Cluster then
              rpcs :=
                (t0, t1, tally.rpcs - rpcs0, tally.rpc_s -. rpc_s0) :: !rpcs;
            Option.iter (fun t -> telemetry := t :: !telemetry) tele;
            if doc <> reference then begin
              ok := false;
              Printf.eprintf "search: %s answer differs from reference\n%!"
                (leg_name leg)
            end)
          (legs_in_order rng);
        legs := !mine @ !legs;
        per_op := !mine :: !per_op;
        if not !ok then incr failures)
  in
  let leg_s (_, t0, t1) = scaled t0 t1 in
  let latencies = List.map (fun mine -> sum (List.map leg_s mine)) !per_op in
  {
    ops = List.length intervals;
    failures = !failures;
    elapsed = sum latencies;
    latencies;
    wall_latencies =
      List.map (fun mine -> sum (List.map (fun (_, t0, t1) -> t1 -. t0) mine)) !per_op;
    leg_times =
      List.map
        (fun l ->
          ( l,
            List.filter_map
              (fun ((l', _, _) as x) -> if l' = l then Some (leg_s x) else None)
              !legs ))
        [ Serial; Domains; Cluster ];
    windows = !legs;
    telemetry = !telemetry;
    cluster_rpcs = !rpcs;
  }

let e2e_of ph setup_s =
  [
    wall
      (metric "throughput_ops_s" "1/s"
         (throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed)
         ~note:"queries answered three ways per second")
      (throughput ~ops:ph.ops ~failed:ph.failures (sum ph.wall_latencies));
    wall
      (latency "latency_p50_ms" (Array.of_list ph.latencies) 50.)
      (median ph.wall_latencies *. 1000.);
    metric "setup_s" "s" setup_s
      ~note:"median of 15: worker start + connect + ping";
  ]

(* Summed per-worker telemetry counter [k] of one cluster leg. *)
let tele_sum k doc =
  match Json.member "workers" doc with
  | Some (Json.List ws) ->
    List.fold_left
      (fun acc w ->
        acc + Option.value ~default:0 (Option.bind (Json.member k w) Json.to_int_opt))
      0 ws
  | _ -> 0

let tele_top k doc =
  Option.value (Option.bind (Json.member k doc) Json.to_int_opt) ~default:0

(* Spans that opened inside a window of [leg]. *)
let in_leg ph leg spans =
  List.filter
    (fun s ->
      List.exists
        (fun (l, t0, t1) -> l = leg && s.t_open >= t0 && s.t_open <= t1)
        ph.windows)
    spans

let layer_of ~plain ~traced:(ph, events, _snap) ~wire_bytes stats =
  let legs = float (max 1 ph.ops) in
  let spans = spans_of events in
  let self leg names = self_of (self_times (in_leg ph leg spans)) names in
  (* busy time per domain of the domains leg: its explore.vector spans,
     the calling domain first *)
  let busy =
    let by_domain = Hashtbl.create 4 in
    List.iter
      (fun s ->
        if s.sname = "explore.vector" then
          Hashtbl.replace by_domain s.sdomain
            (scaled s.t_open s.t_close
            +. Option.value (Hashtbl.find_opt by_domain s.sdomain) ~default:0.))
      (in_leg ph Domains spans);
    let self_id = (Domain.self () :> int) in
    let own = Option.value (Hashtbl.find_opt by_domain self_id) ~default:0. in
    let others =
      Hashtbl.fold
        (fun d v acc -> if d = self_id then acc else acc +. v)
        by_domain 0.
    in
    [ own *. 1000. /. legs; others *. 1000. /. legs ]
  in
  let imbalance =
    let mean = sum busy /. 2. in
    if mean = 0. then 0. else List.fold_left max 0. busy /. mean
  in
  let clusters = float (max 1 (List.length plain.telemetry)) in
  let cluster_s = sum (List.assoc Cluster plain.leg_times) /. clusters in
  let telemetry = plain.telemetry @ ph.telemetry in
  let tele k = exact ("cluster." ^ k) (List.map (tele_sum k) telemetry) in
  let ingested = tele "ingested" and inserted = tele "inserted" in
  let dup_hits = tele "dup_hits" in
  let steals = exact "cluster.steals" (List.map (tele_top "steals") telemetry) in
  let rpcs =
    exact "cluster.rpcs"
      (List.map (fun (_, _, k, _) -> k) (plain.cluster_rpcs @ ph.cluster_rpcs))
  in
  let configs = stats.Explore.configs_explored in
  let rpc_ms =
    sum
      (List.map
         (fun (t0, t1, _, secs) -> secs *. scaled t0 t1 /. (t1 -. t0))
         plain.cluster_rpcs)
    *. 1000. /. clusters
  in
  ( List.map
      (fun (leg, ts) ->
        metric (Printf.sprintf "search.%s_check_s" (leg_name leg)) "s" (median ts)
          ~note:(Printf.sprintf "median of %d, untraced" (List.length ts)))
      plain.leg_times
    @ [
      metric "explore.configs_explored" "count" (float configs);
      metric "explore.table_hit_ratio" "ratio"
        (ratio stats.Explore.table_hits
           (stats.Explore.table_hits + stats.Explore.table_misses));
      metric "explore.solo_probes" "count" (float stats.Explore.solo_cache_misses);
      metric "explore.vector_self_ms" "ms"
        (self Serial [ "explore.vector" ] *. 1000. /. legs);
      metric "explore.peak_frontier" "count" (float stats.Explore.peak_frontier);
      metric "par.busy_ms.d0" "ms" (List.nth busy 0);
      metric "par.busy_ms.d1" "ms" (List.nth busy 1);
      metric "par.imbalance" "ratio" imbalance;
      metric "cluster.rpcs" "count" (float rpcs);
      metric "cluster.rpc_ms" "ms" rpc_ms;
      metric "cluster.coord_self_ms" "ms" (cluster_s *. 1000. -. rpc_ms);
      metric "cluster.wire_bytes" "bytes" (float wire_bytes);
      metric "cluster.expand_self_ms" "ms"
        (self Cluster [ "cluster.expand" ] *. 1000. /. legs);
      metric "cluster.ingest_self_ms" "ms"
        (self Cluster [ "cluster.ingest" ] *. 1000. /. legs);
      metric "cluster.useful_ratio" "ratio" (ratio inserted ingested);
      metric "cluster.dup_hits" "count" (float dup_hits);
      metric "cluster.steals" "count" (float steals);
    ],
    [ ("explore.configs_explored", configs);
      ("explore.solo_probes", stats.Explore.solo_cache_misses);
      ("cluster.rpcs", rpcs); ("cluster.ingested", ingested);
      ("cluster.inserted", inserted); ("cluster.dup_hits", dup_hits);
      ("cluster.steals", steals) ] )

let run ~seed ~seconds ~trace =
  let servers = ref [] in
  let stop_all () = List.iter Worker.stop !servers; servers := [] in
  let (_, peer), setup_s =
    repeat 15 ~before:stop_all (fun () ->
        let s = Worker.start { Worker.default_config with Worker.port = 0 } in
        servers := [ s ];
        (s, connect s))
  in
  Fun.protect ~finally:(fun () -> List.iter Worker.stop !servers) @@ fun () ->
  let reference, stats = serial_answer ~domains:1 in
  let rng = Random.State.make [| seed |] in
  if not trace then begin
    let ph = run_phase ~peer ~reference ~seconds ~min_ops:(min_samples 50.) rng in
    print_metrics "search legs:"
      (List.map
         (fun (leg, ts) ->
           metric (Printf.sprintf "search.%s_check_s" (leg_name leg)) "s" (median ts))
         ph.leg_times);
    { attempted = ph.ops; failed = ph.failures; e2e = e2e_of ph setup_s;
      layer = []; exact = [] }
  end
  else begin
    let half = seconds /. 2. in
    let plain = run_phase ~peer ~reference ~seconds:half ~min_ops:3 rng in
    let ((ph, _, _) as tr) =
      traced (fun () -> run_phase ~peer ~reference ~seconds:half ~min_ops:3 rng)
    in
    tally.wire <- true;
    ignore (answer peer Cluster);
    let layer, exact =
      layer_of ~plain ~traced:tr ~wire_bytes:tally.wire_bytes stats
    in
    let overhead =
      tracing_overhead
        ~plain:(throughput ~ops:plain.ops ~failed:plain.failures plain.elapsed)
        ~traced:(throughput ~ops:ph.ops ~failed:ph.failures ph.elapsed)
    in
    { attempted = plain.ops + ph.ops; failed = plain.failures + ph.failures;
      e2e = []; layer = layer @ [ overhead ]; exact }
  end
