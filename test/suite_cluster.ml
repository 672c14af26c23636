(* The distributed search cluster: shard routing determinism, the wire
   codecs and op surface, and — the load-bearing property — that a multi-worker
   coordinator run produces a result document byte-identical to the
   serial engine's for every mode, plus structured degradation when a
   worker dies and full recovery through the chaos proxy. *)

open Ts_model
module Json = Ts_analysis.Json
module Shard = Ts_cluster.Shard
module Msg = Ts_cluster.Msg
module Worker = Ts_cluster.Worker
module Coord = Ts_cluster.Coord
module Dispatch = Ts_service.Dispatch
module Request = Ts_service.Request
module Chaos = Ts_service.Chaos

(* --- shard routing ------------------------------------------------------- *)

let some_keys n =
  List.init n (fun i ->
      Ckey.of_string (Printf.sprintf "key-%d-%s" i (String.make (i mod 7) 'x')))

let test_shard_determinism () =
  let keys = some_keys 200 in
  List.iter
    (fun k ->
      let s = Shard.owner ~shards:8 k in
      Alcotest.(check bool) "in range" true (s >= 0 && s < 8);
      Alcotest.(check int) "stable" s (Shard.owner ~shards:8 k))
    keys;
  (* the partition actually spreads keys: no shard owns everything *)
  let counts = Array.make 8 0 in
  List.iter (fun k -> let s = Shard.owner ~shards:8 k in counts.(s) <- counts.(s) + 1) keys;
  Alcotest.(check bool) "spread" true (Array.for_all (fun c -> c < 200) counts)

let test_shard_resharding_moves_only_to_new () =
  (* rendezvous hashing: growing s -> s+1 may move a key only TO the new
     shard; every key that stays mapped stays put *)
  let keys = some_keys 300 in
  List.iter
    (fun shards ->
      List.iter
        (fun k ->
          let before = Shard.owner ~shards k in
          let after = Shard.owner ~shards:(shards + 1) k in
          if after <> before then
            Alcotest.(check int) "moved key lands on the new shard" shards after)
        keys)
    [ 1; 2; 3; 5; 8 ]

let test_round_robin () =
  let a = Shard.round_robin ~shards:5 ~workers:2 in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 0; 1; 0 ] (Array.to_list a)

(* --- codecs -------------------------------------------------------------- *)

let test_sched_codec () =
  let scheds =
    [
      [];
      [ Execution.ev 0 ];
      [ Execution.flip 1 true; Execution.flip 1 false; Execution.ev 2 ];
      [ Execution.ev 10; Execution.flip 0 false ];
    ]
  in
  List.iter
    (fun s ->
      match Msg.sched_of_string (Msg.sched_to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error m -> Alcotest.fail m)
    scheds;
  (match Msg.sched_of_string "0,,1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty token must be rejected")

let test_cand_codec () =
  let cands =
    [ { Msg.shard = 0; sched = "" }; { Msg.shard = 7; sched = "0,1h,1t,2" } ]
  in
  match Msg.cands_of_json (Msg.cands_to_json cands) with
  | Ok c -> Alcotest.(check bool) "roundtrip" true (c = cands)
  | Error m -> Alcotest.fail m

(* --- worker wire surface --------------------------------------------------- *)

let test_removed_ops_rejected () =
  (* ops outside the five-op protocol are refused before the seq window
     sees them: seq 1 is still free for the ingest sent afterwards *)
  let w = Worker.create () in
  let call fields =
    match Json.of_string (Worker.handle w (Json.to_string (Json.Obj fields))) with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let search = ("search", Json.Str "s") in
  let init =
    call
      [ ("op", Json.Str "cluster-init"); search; ("protocol", Json.Str "racing");
        ("n", Json.Int 2); ("mode", Json.Str "check"); ("shards", Json.Int 2);
        ("solo_budget", Json.Int 300);
        ("inputs", Json.List [ Json.Int 0; Json.Int 1 ]) ]
  in
  let root_shard =
    match Msg.result_of_envelope init with
    | Ok r -> (
      match Option.bind (Json.member "root_shard" r) Json.to_int_opt with
      | Some s -> s
      | None -> Alcotest.fail "init reply missing root_shard")
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun op ->
      let reply =
        call
          [ ("op", Json.Str op); search; ("seq", Json.Int 1);
            ("shard", Json.Int root_shard); ("keys", Json.List []) ]
      in
      let code =
        Option.bind
          (Option.bind (Json.member "error" reply) (Json.member "code"))
          Json.to_str_opt
      in
      Alcotest.(check (option string)) (op ^ " refused") (Some "bad-request") code)
    [ "cluster-steal-export"; "cluster-steal-import"; "cluster-nope" ];
  let ingest =
    call
      [ ("op", Json.Str "cluster-ingest"); search; ("seq", Json.Int 1);
        ("reset", Json.Bool true);
        ("cands", Msg.cands_to_json [ { Msg.shard = root_shard; sched = "" } ]) ]
  in
  match Msg.result_of_envelope ingest with
  | Ok r ->
    Alcotest.(check (option string)) "seq 1 still executes" (Some "1")
      (Option.bind (Json.member "flags" r) Json.to_str_opt)
  | Error m -> Alcotest.fail m

(* --- the parallel == serial differential ---------------------------------- *)

let serial_result req =
  let d = Dispatch.create () in
  match Json.member "result" (Dispatch.handle d req) with
  | Some r -> Json.to_string r
  | None -> Alcotest.fail "serial dispatch produced no result"

let local_peers n = List.init n (fun i -> Coord.local_peer ~wid:i (Worker.create ()))

let cluster_result ?(workers = 2) params =
  match Coord.run params ~peers:(local_peers workers) with
  | Coord.Complete { result; _ } -> Json.to_string result
  | Coord.Failed _ -> Alcotest.fail "cluster run failed"

let check_params ~protocol ~n ~max_configs ~max_depth =
  {
    Coord.default_params with
    op = Coord.Check;
    protocol;
    n;
    max_configs;
    max_depth;
    shards = 5;
    chunk = 32;  (* small chunks so multi-chunk rounds are exercised *)
  }

let check_req ~protocol ~n ~max_configs ~max_depth =
  { Request.defaults with op = Request.Check; protocol; n; max_configs; max_depth }

let differential ~workers params req =
  let serial = serial_result req in
  let cluster = cluster_result ~workers params in
  Alcotest.(check string) "parallel == serial" serial cluster

let test_differential_check_clean () =
  (* racing counters truncate (infinite reachable set): exercises the
     truncation flag and big multi-round frontiers *)
  let p = check_params ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12 in
  let r = check_req ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12 in
  differential ~workers:1 p r;
  differential ~workers:2 p r;
  differential ~workers:3 p r

let test_differential_check_violation () =
  (* broken-lww loses a write: an agreement violation found mid-search,
     exercising the drain pass and witness reconstruction *)
  let p = check_params ~protocol:"broken-lww" ~n:2 ~max_configs:2000 ~max_depth:20 in
  let r = check_req ~protocol:"broken-lww" ~n:2 ~max_configs:2000 ~max_depth:20 in
  differential ~workers:2 p r

let test_differential_check_swap () =
  let p = check_params ~protocol:"swap" ~n:2 ~max_configs:500 ~max_depth:14 in
  let r = check_req ~protocol:"swap" ~n:2 ~max_configs:500 ~max_depth:14 in
  differential ~workers:2 p r

let test_differential_resilient () =
  let p =
    {
      (check_params ~protocol:"racing" ~n:2 ~max_configs:200 ~max_depth:10) with
      Coord.op = Coord.Resilient;
      t_faults = 1;
    }
  in
  let r =
    {
      (check_req ~protocol:"racing" ~n:2 ~max_configs:200 ~max_depth:10) with
      Request.op = Request.Resilient;
      t_faults = 1;
    }
  in
  differential ~workers:2 p r

let valency_differential ~horizon =
  let p =
    {
      Coord.default_params with
      op = Coord.Valency;
      protocol = "racing";
      n = 2;
      horizon = Some horizon;
      shards = 5;
      chunk = 32;
    }
  in
  let r =
    { Request.defaults with op = Request.Valency; protocol = "racing"; n = 2;
      horizon = Some horizon }
  in
  differential ~workers:2 p r

(* horizon 8 decides neither value; horizon 20 decides both, so the
   serial oracle's one joint search stops at the later of two witnesses *)
let test_differential_valency () = valency_differential ~horizon:8
let test_differential_valency_bivalent () = valency_differential ~horizon:20

let test_more_workers_than_shards () =
  (* two shards over three workers: round-robin placement leaves the
     third worker without a shard, and the answer must not notice *)
  let p =
    { (check_params ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12) with
      Coord.shards = 2 }
  in
  let r = check_req ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12 in
  let serial = serial_result r in
  match Coord.run p ~peers:(local_peers 3) with
  | Coord.Failed _ -> Alcotest.fail "cluster run failed"
  | Coord.Complete { result; telemetry } ->
    Alcotest.(check string) "parallel == serial" serial (Json.to_string result);
    let idle =
      match Json.member "workers" telemetry with
      | Some (Json.List [ _; _; w2 ]) ->
        Option.bind (Json.member "ingested" w2) Json.to_int_opt
      | _ -> None
    in
    Alcotest.(check (option int)) "shardless worker ingested nothing" (Some 0)
      idle

(* --- failure model -------------------------------------------------------- *)

let test_worker_death_is_partial () =
  let w0 = Coord.local_peer ~wid:0 (Worker.create ()) in
  let budget = ref 6 in
  let real = Coord.local_peer ~wid:1 (Worker.create ()) in
  let dying =
    {
      real with
      Coord.call =
        (fun doc ->
          decr budget;
          if !budget <= 0 then Error "exhausted: injected crash" else real.Coord.call doc);
    }
  in
  let p = check_params ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12 in
  match Coord.run p ~peers:[ w0; dying ] with
  | Coord.Complete _ -> Alcotest.fail "expected a partial outcome"
  | Coord.Failed f ->
    Alcotest.(check bool) "reason" true (f.Coord.reason = `Dead_workers);
    Alcotest.(check (list int)) "dead worker identified" [ 1 ]
      (List.map fst f.Coord.dead);
    Alcotest.(check bool) "lost shards identified" true (f.Coord.lost_shards <> []);
    List.iter
      (fun s -> Alcotest.(check int) "lost shards were the dead worker's" 1 (s mod 2))
      f.Coord.lost_shards;
    (* every reassigned shard lands on the survivor *)
    List.iter (fun (_, w) -> Alcotest.(check int) "reassigned to survivor" 0 w)
      f.Coord.reassignment;
    Alcotest.(check bool) "reassignment covers all shards" true
      (List.length f.Coord.reassignment = p.Coord.shards)

let test_restart_on_survivors_completes () =
  let w0 = Coord.local_peer ~wid:0 (Worker.create ()) in
  let budget = ref 6 in
  let real = Coord.local_peer ~wid:1 (Worker.create ()) in
  let dying =
    {
      real with
      Coord.call =
        (fun doc ->
          decr budget;
          if !budget <= 0 then Error "exhausted: injected crash" else real.Coord.call doc);
    }
  in
  let p = check_params ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12 in
  let serial =
    serial_result (check_req ~protocol:"racing" ~n:2 ~max_configs:400 ~max_depth:12)
  in
  match Coord.run ~restarts:1 p ~peers:[ w0; dying ] with
  | Coord.Failed _ -> Alcotest.fail "restart on the survivor should complete"
  | Coord.Complete { result; _ } ->
    Alcotest.(check string) "restarted answer still byte-identical" serial
      (Json.to_string result)

(* --- idempotent retries --------------------------------------------------- *)

let test_duplicate_delivery_is_replayed () =
  (* a peer whose transport redelivers every mutating message twice:
     the seq protocol must absorb the duplicates byte-for-byte *)
  let w = Worker.create () in
  let real = Coord.local_peer ~wid:0 w in
  let duplicating =
    {
      real with
      Coord.call =
        (fun doc ->
          let first = real.Coord.call doc in
          match Json.member "seq" doc with
          | Some _ ->
            let second = real.Coord.call doc in
            Alcotest.(check bool) "replayed reply identical" true (first = second);
            second
          | None -> first);
    }
  in
  let p = check_params ~protocol:"racing" ~n:2 ~max_configs:200 ~max_depth:10 in
  let serial =
    serial_result (check_req ~protocol:"racing" ~n:2 ~max_configs:200 ~max_depth:10)
  in
  match Coord.run p ~peers:[ duplicating ] with
  | Coord.Failed _ -> Alcotest.fail "duplicated delivery must still complete"
  | Coord.Complete { result; _ } ->
    Alcotest.(check string) "answer unchanged under duplication" serial
      (Json.to_string result)

(* --- chaos leg ------------------------------------------------------------ *)

let test_chaos_leg () =
  (* a real TCP worker behind the fault proxy at fault probability 1.0:
     every connection is faulted (latency + throttle — the deterministic
     classes), and the resilient client must still converge to the exact
     serial answer *)
  let srv = Worker.start { Worker.default_config with port = 0 } in
  Fun.protect ~finally:(fun () -> Worker.stop srv) @@ fun () ->
  let chaos =
    Chaos.start
      {
        (Chaos.default_config ~upstream_port:(Worker.port srv)) with
        Chaos.fault_prob = 1.0;
        seed = 2026;
        classes = { Chaos.no_classes with latency = true; throttle = true };
        max_delay_ms = 5;
      }
  in
  Fun.protect ~finally:(fun () -> Chaos.stop chaos) @@ fun () ->
  let peer = Coord.tcp_peer ~wid:0 ~host:"127.0.0.1" ~port:(Chaos.port chaos) () in
  let p = check_params ~protocol:"racing" ~n:2 ~max_configs:150 ~max_depth:8 in
  let serial =
    serial_result (check_req ~protocol:"racing" ~n:2 ~max_configs:150 ~max_depth:8)
  in
  (match Coord.run p ~peers:[ peer ] with
  | Coord.Failed _ -> Alcotest.fail "chaos run must eventually succeed"
  | Coord.Complete { result; _ } ->
    Alcotest.(check string) "answer survives a fully faulted proxy" serial
      (Json.to_string result));
  let s = Chaos.stats chaos in
  Alcotest.(check bool) "every connection was faulted" true
    (s.Chaos.connections > 0 && s.Chaos.faulted = s.Chaos.connections)

let suite =
  ( "cluster",
    [
      Alcotest.test_case "shard: deterministic routing" `Quick test_shard_determinism;
      Alcotest.test_case "shard: resharding moves keys only to the new shard" `Quick
        test_shard_resharding_moves_only_to_new;
      Alcotest.test_case "shard: round-robin assignment" `Quick test_round_robin;
      Alcotest.test_case "msg: schedule codec" `Quick test_sched_codec;
      Alcotest.test_case "msg: candidate codec" `Quick test_cand_codec;
      Alcotest.test_case "worker: removed and unknown ops are bad-request" `Quick
        test_removed_ops_rejected;
      Alcotest.test_case "differential: check clean (1/2/3 workers)" `Quick
        test_differential_check_clean;
      Alcotest.test_case "differential: check violation" `Quick
        test_differential_check_violation;
      Alcotest.test_case "differential: check swap" `Quick test_differential_check_swap;
      Alcotest.test_case "differential: resilient" `Quick test_differential_resilient;
      Alcotest.test_case "differential: valency" `Quick test_differential_valency;
      Alcotest.test_case "differential: valency bivalent" `Quick
        test_differential_valency_bivalent;
      Alcotest.test_case "differential: more workers than shards" `Quick
        test_more_workers_than_shards;
      Alcotest.test_case "worker death yields a structured partial" `Quick
        test_worker_death_is_partial;
      Alcotest.test_case "restart on survivors completes identically" `Quick
        test_restart_on_survivors_completes;
      Alcotest.test_case "duplicate delivery is replayed" `Quick
        test_duplicate_delivery_is_replayed;
      Alcotest.test_case "chaos: fully faulted proxy still converges" `Quick
        test_chaos_leg;
    ] )
