(* Exact search counters, pinned.

   Every breadth-first search in the engine is deterministic: the same
   instance dequeues the same configurations in the same order, so its
   work counters, its truncation point under a budget and the witness it
   returns are exact numbers, not ranges.  This suite pins them for the
   checker (consensus, t-resilience, a violation and a budget cut), the
   valency oracle under Theorem 1, the valency graph, the analyzer's lint
   and determinism passes and the mutex covering search.  A refactor of
   the search loops must leave every line here unchanged; a deliberate
   change of search order has to refresh the goldens and say why. *)

open Ts_model
module Explore = Ts_checker.Explore
module Budget = Ts_core.Budget
module Theorem = Ts_core.Theorem
module Lint = Ts_analysis.Lint
module Determinism = Ts_analysis.Determinism
module Finding = Ts_analysis.Finding
module Covering_search = Ts_mutex.Covering_search
module Metrics = Ts_obs.Obs.Metrics

let explore_stats (s : Explore.stats) =
  Printf.sprintf
    "configs=%d truncated=%b deepest=%d hits=%d misses=%d peak=%d solo_hits=%d solo_misses=%d"
    s.configs_explored s.truncated s.deepest s.table_hits s.table_misses s.peak_frontier
    s.solo_cache_hits s.solo_cache_misses

let schedule_string sched =
  String.concat " "
    (List.map
       (fun { Execution.pid; coin } ->
         Printf.sprintf "p%d%s" pid
           (match coin with None -> "" | Some true -> "+" | Some false -> "-"))
       sched)

(* A long schedule is pinned by its length and the digest of its
   rendering. *)
let schedule_digest sched =
  Printf.sprintf "len=%d md5=%s" (List.length sched)
    (Digest.to_hex (Digest.string (schedule_string sched)))

let explore_result (r : Explore.result) =
  let verdict =
    match r.verdict with
    | Ok () -> "clean"
    | Error v ->
      Printf.sprintf "%s after [%s]" (Explore.violation_kind v)
        (schedule_string (Explore.violation_schedule v))
  in
  Printf.sprintf "%s; %s; stopped=%b" verdict (explore_stats r.stats) (r.stopped <> None)

let racing3 = Ts_protocols.Racing.make ~n:3
let inputs3 = Explore.binary_inputs 3

let check_consensus () =
  let r =
    Explore.check_consensus racing3 ~inputs_list:inputs3 ~max_configs:1_500 ~max_depth:14
      ~solo_budget:60 ~check_solo:true
  in
  Alcotest.(check string) "racing n=3 consensus"
    "clean; configs=7216 truncated=true deepest=14 hits=9508 misses=7216 peak=263 solo_hits=0 \
     solo_misses=21648; stopped=false"
    (explore_result r)

let check_consensus_budget () =
  let r =
    Explore.check_consensus racing3 ~budget:(Budget.create ~max_nodes:20_000 ())
      ~inputs_list:inputs3 ~max_configs:1_500 ~max_depth:14 ~solo_budget:60
      ~check_solo:true
  in
  Alcotest.(check string) "racing n=3 consensus, budget cut"
    "clean; configs=266 truncated=true deepest=10 hits=411 misses=371 peak=106 solo_hits=0 \
     solo_misses=777; stopped=true"
    (explore_result r)

let check_t_resilient () =
  Alcotest.(check (list string)) "racing n=3, t = 1 and 2"
    (List.init 2 (fun _ ->
         "clean; configs=1328 truncated=true deepest=8 hits=1560 misses=1328 peak=47 \
          solo_hits=0 solo_misses=3984; stopped=false"))
    (List.map
       (fun t ->
         explore_result
           (Explore.check_t_resilient ~t racing3 ~inputs_list:inputs3 ~max_configs:600
              ~max_depth:8 ~solo_budget:60))
       [ 1; 2 ])

let check_violation () =
  let r =
    Explore.check_consensus (Ts_protocols.Broken.last_write_wins ~n:2)
      ~inputs_list:(Explore.binary_inputs 2) ~max_configs:1_000 ~max_depth:20
      ~solo_budget:40 ~check_solo:true
  in
  Alcotest.(check string) "broken-lww n=2"
    "agreement after [p0 p0 p0 p1 p1 p1]; configs=50 truncated=false deepest=6 hits=23 \
     misses=53 peak=11 solo_hits=0 solo_misses=74; stopped=false"
    (explore_result r)

(* Theorem 1 as the benchmark runs it: escalation from horizon 10n, the
   oracle counters read from the metrics registry. *)
let theorem1 name proto expected () =
  Metrics.start ();
  let outcome, horizon = Theorem.theorem1_escalate proto ~initial_horizon:30 in
  let snap = Metrics.stop () in
  let counter k = Option.value ~default:0 (List.assoc_opt k snap.Metrics.counters) in
  let gauge k = Option.value ~default:0 (List.assoc_opt k snap.Metrics.gauges) in
  let got =
    match outcome with
    | Theorem.Partial _ -> "partial"
    | Theorem.Complete c ->
      Printf.sprintf
        "horizon=%d searches=%d nodes=%d memo_hits=%d memo_misses=%d peak=%d written=%d %s"
        horizon (counter "valency.searches") (counter "valency.nodes_expanded")
        (counter "valency.memo_hits") (counter "valency.memo_misses")
        (gauge "valency.peak_frontier")
        (List.length c.Theorem.registers_written)
        (schedule_digest c.Theorem.schedule)
  in
  Alcotest.(check string) name expected got

let valgraph () =
  let proto = Ts_protocols.Racing.make ~n:2 in
  let t = Ts_core.Valency.create proto ~horizon:30 in
  let dot, s =
    Ts_core.Valgraph.dot t ~inputs:[| Value.int 0; Value.int 1 |] ~pset:(Pset.all 2)
      ~depth:6 ~max_nodes:60
  in
  Alcotest.(check string) "racing n=2 graph"
    "nodes=28 edges=42 biv=22 u0=3 u1=3 blocked=0 dot=ce12068613e6457b37cb26408b995d8c"
    (Printf.sprintf "nodes=%d edges=%d biv=%d u0=%d u1=%d blocked=%d dot=%s" s.nodes s.edges
       s.bivalent s.univalent0 s.univalent1 s.blocked
       (Digest.to_hex (Digest.string dot)))

(* Finding lists are pinned by count and the digest of their rendering. *)
let findings fs =
  Printf.sprintf "findings=%d md5=%s" (List.length fs)
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map
                (fun f ->
                  Printf.sprintf "%s/%s: %s" f.Finding.code
                    (Finding.severity_to_string f.Finding.severity)
                    f.Finding.message)
                fs))))

let lint_summary (s : Lint.summary) =
  Printf.sprintf
    "configs=%d truncated=%b max_reg=%d touched=%d r/w/s/f/d=%d/%d/%d/%d/%d reachable=%b"
    s.configs s.truncated s.max_register s.registers_touched s.reads s.writes s.swaps
    s.flips s.decides s.decide_reachable

let lint () =
  let rw = { Lint.binary_decides = true; may_swap = false; may_flip = false } in
  Alcotest.(check (list string)) "racing n=3, racing-rand n=2, rogue n=2"
    [
      "configs=5237 truncated=true max_reg=5 touched=6 r/w/s/f/d=11363/634/0/0/0 \
       reachable=false findings=1 md5=e89c69d2f82d268b682b78a2dec39743";
      "configs=2202 truncated=true max_reg=3 touched=4 r/w/s/f/d=3104/426/0/74/234 \
       reachable=true findings=0 md5=d41d8cd98f00b204e9800998ecf8427e";
      "configs=4 truncated=false max_reg=1 touched=1 r/w/s/f/d=0/8/0/0/0 reachable=false \
       findings=3 md5=7b75cb1669ab88742f5c59bbefd512ff";
    ]
  @@ List.map
    (fun (claims, Protocol.Packed proto, inputs_list) ->
      let fs, s = Lint.run claims proto ~inputs_list in
      lint_summary s ^ " " ^ findings fs)
    [
      (rw, Protocol.Packed racing3, inputs3);
      ( { rw with may_flip = true },
        Protocol.Packed (Ts_protocols.Racing.make_randomized ~n:2),
        Explore.binary_inputs 2 );
      ( rw, Protocol.Packed (Ts_protocols.Broken.rogue_writer ~n:2),
        Explore.binary_inputs 2 );
    ]

let determinism () =
  Alcotest.(check (list string)) "racing n=3, racing-rand n=2, hidden ref"
    [
      "findings=0 md5=d41d8cd98f00b204e9800998ecf8427e";
      "findings=0 md5=d41d8cd98f00b204e9800998ecf8427e";
      "findings=224 md5=93d005dc62582edcdbce8c616b231aa0";
    ]
  @@ List.map
    (fun (Protocol.Packed proto, inputs_list) ->
      findings (Determinism.run proto ~inputs_list))
    [
      (Protocol.Packed racing3, inputs3);
      ( Protocol.Packed (Ts_protocols.Racing.make_randomized ~n:2),
        Explore.binary_inputs 2 );
      ( Protocol.Packed (Suite_analysis.hidden_ref_protocol ()),
        Explore.binary_inputs 2 );
    ]

let covering () =
  Alcotest.(check (list string)) "peterson n=2, bakery n=2, peterson n=3 cut"
    [
      "peterson-2 (n=2): best covering found = 2 distinct registers over 80 configurations \
       (exhaustive)";
      "bakery-2 (n=2): best covering found = 2 distinct registers over 195 configurations \
       (exhaustive)";
      "peterson-3 (n=3): best covering found = 3 distinct registers over 2000 configurations \
       (truncated)";
    ]
  @@ List.map
    (fun (Ts_mutex.Algorithm.Packed alg, max_configs) ->
      Format.asprintf "%a" Covering_search.pp_report
        (Covering_search.search alg ~max_configs))
    [
      (Ts_mutex.Algorithm.Packed (Ts_mutex.Peterson.make ~n:2), 10_000);
      (Ts_mutex.Algorithm.Packed (Ts_mutex.Bakery.make ~n:2), 5_000);
      (Ts_mutex.Algorithm.Packed (Ts_mutex.Peterson.make ~n:3), 2_000);
    ]

let suite =
  ( "counters",
    [
      Alcotest.test_case "explore: consensus stats" `Quick check_consensus;
      Alcotest.test_case "explore: budget cut" `Quick check_consensus_budget;
      Alcotest.test_case "explore: t-resilience stats" `Quick check_t_resilient;
      Alcotest.test_case "explore: violation witness" `Quick check_violation;
      Alcotest.test_case "theorem1: racing n=3" `Quick (theorem1 "racing" racing3
           "horizon=30 searches=23 nodes=20798 memo_hits=5 memo_misses=28 peak=3714 written=3 \
            len=41 md5=fa6179e543ea3822b7508d85549cd2fb");
      Alcotest.test_case "theorem1: racing-rand n=3" `Quick
        (theorem1 "racing-rand" (Ts_protocols.Racing.make_randomized ~n:3)
           "horizon=30 searches=23 nodes=23143 memo_hits=5 memo_misses=28 peak=4325 written=3 \
            len=41 md5=fa6179e543ea3822b7508d85549cd2fb");
      Alcotest.test_case "valgraph: racing n=2" `Quick valgraph;
      Alcotest.test_case "lint: summaries" `Quick lint;
      Alcotest.test_case "determinism: findings" `Quick determinism;
      Alcotest.test_case "covering search: reports" `Quick covering;
    ] )
