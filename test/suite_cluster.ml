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
  (* schedules travel as event codes inside remote candidates *)
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
      List.iter
        (fun e ->
          Alcotest.(check bool) "event code roundtrip" true
            (Msg.event_of_code (Msg.event_code e) = e))
        s;
      match Msg.cands_of_block (Msg.cands_to_block [ Msg.Remote ("k", s) ]) with
      | Ok [ Msg.Remote ("k", s') ] -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Ok _ -> Alcotest.fail "wrong candidate decoded"
      | Error m -> Alcotest.fail m)
    scheds;
  (* a schedule cut short inside its block is rejected, not guessed *)
  let full = Msg.cands_to_block [ Msg.Remote ("k", [ Execution.ev 0; Execution.ev 1 ]) ] in
  match Msg.cands_of_block (String.sub full 0 (String.length full - 4)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated schedule must be rejected"

let test_cand_codec () =
  let roundtrip name enc dec v =
    match dec (enc v) with
    | Ok v' -> Alcotest.(check bool) name true (v = v')
    | Error m -> Alcotest.fail (name ^ ": " ^ m)
  in
  roundtrip "candidates" Msg.cands_to_block Msg.cands_of_block
    [ Msg.Local 0; Msg.Local 1; Msg.Remote ("\000\255key", [ Execution.flip 2 true ]);
      Msg.Local 7; Msg.Local 3; Msg.Remote ("", []); Msg.Local 300 ];
  roundtrip "verdicts" Msg.verdicts_to_block Msg.verdicts_of_block
    [ Msg.Dup; Msg.Fresh { stop = 0; probes = 3 }; Msg.Fresh { stop = 3; probes = 0 };
      Msg.Fresh { stop = 1; probes = 1000 }; Msg.Dup ];
  roundtrip "indices" Msg.ints_to_block Msg.ints_of_block [ 0; 1; 2; 5; 4; 100_000 ];
  roundtrip "successors" (Msg.succs_to_block ~shards:5) (Msg.succs_of_block ~shards:5)
    [ [ { Msg.event = Execution.ev 0; shard = 4; key = None };
        { Msg.event = Execution.flip 1 false; shard = 0; key = Some "abc" } ];
      [];
      [ { Msg.event = Execution.ev 2; shard = 2; key = Some "" } ] ];
  (* a local ref costs one byte in an increasing run: four base64
     characters carry three of them *)
  Alcotest.(check int) "compact local refs" 4
    (String.length (Msg.cands_to_block [ Msg.Local 0; Msg.Local 1; Msg.Local 2 ]));
  List.iter
    (fun bad ->
      match Msg.verdicts_of_block bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "block %S must be rejected" bad))
    [ "gA=="; "AAA"; "A*=="; "=AAA" ]

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
        ("owners", Json.List [ Json.Int 0; Json.Int 0 ]); ("self", Json.Int 0);
        ("solo_budget", Json.Int 300);
        ("inputs", Json.List [ Json.Int 0; Json.Int 1 ]) ]
  in
  let root_shard =
    match Msg.result_of_envelope init with
    | Ok r -> (
      match Option.bind (Json.member "root_shard" r) Json.to_int_opt with
      | Some s -> s
      | None -> Alcotest.fail "init reply missing root_shard")
    | Error (_, m) -> Alcotest.fail m
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
        ("cands", Json.Str (Msg.cands_to_block [ Msg.Local 0 ])) ]
  in
  match Msg.result_of_envelope ingest with
  | Ok r ->
    Alcotest.(check bool) "seq 1 still executes" true
      (match
         Option.map Msg.verdicts_of_block
           (Option.bind (Json.member "flags" r) Json.to_str_opt)
       with
       | Some (Ok [ Msg.Fresh _ ]) -> true
       | _ -> false)
  | Error (_, m) -> Alcotest.fail m

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

(* --- key routing at n = 3 ---------------------------------------------------- *)

let test_differential_racing_rand_n3 () =
  (* coin flips make two successors per flipping process, heads before
     tails; with 2 and 3 workers most successors are remote keys whose
     owners replay them from coordinator-built schedules *)
  let p = check_params ~protocol:"racing-rand" ~n:3 ~max_configs:600 ~max_depth:40 in
  let r = check_req ~protocol:"racing-rand" ~n:3 ~max_configs:600 ~max_depth:40 in
  differential ~workers:1 p r;
  differential ~workers:2 p r;
  differential ~workers:3 p r

let test_differential_violation_n3 () =
  (* the drain pass at a violation ingests duplicates arriving from
     every worker *)
  let p = check_params ~protocol:"broken-lww" ~n:3 ~max_configs:3000 ~max_depth:20 in
  let r = check_req ~protocol:"broken-lww" ~n:3 ~max_configs:3000 ~max_depth:20 in
  differential ~workers:3 p r

(* --- refusals ---------------------------------------------------------------- *)

let test_refusal_is_not_death () =
  (* broken-rogue reads a register it does not have: the worker answers
     with a typed error, which must stop the run as a refusal — no dead
     worker, no lost shard, no restart *)
  let inits = ref 0 in
  let real = Coord.local_peer ~wid:0 (Worker.create ()) in
  let peer =
    {
      real with
      Coord.call =
        (fun doc ->
          if Json.member "op" doc = Some (Json.Str "cluster-init") then incr inits;
          real.Coord.call doc);
    }
  in
  let p = check_params ~protocol:"broken-rogue" ~n:2 ~max_configs:400 ~max_depth:12 in
  match Coord.run ~restarts:2 p ~peers:[ peer ] with
  | Coord.Complete _ -> Alcotest.fail "broken-rogue must be refused"
  | Coord.Failed f ->
    (match f.Coord.reason with
     | `Refused (code, _) -> Alcotest.(check string) "code" "internal" code
     | _ -> Alcotest.fail "expected a refusal");
    Alcotest.(check int) "no dead worker" 0 (List.length f.Coord.dead);
    Alcotest.(check (list int)) "no lost shard" [] f.Coord.lost_shards;
    Alcotest.(check bool) "peer still alive" true peer.Coord.alive;
    Alcotest.(check int) "not restarted" 1 !inits;
    Alcotest.(check (option string)) "status" (Some "refused")
      (Option.bind (Json.member "status" (Coord.failure_to_json f)) Json.to_str_opt)

let test_malformed_blocks_rejected () =
  (* a bad block or a ref the worker never made is a typed bad-request,
     never an internal exception *)
  let w = Worker.create () in
  let call fields =
    match Json.of_string (Worker.handle w (Json.to_string (Json.Obj fields))) with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let search = ("search", Json.Str "s") in
  (match
     Msg.result_of_envelope
       (call
          [ ("op", Json.Str "cluster-init"); search; ("protocol", Json.Str "racing");
            ("n", Json.Int 2); ("mode", Json.Str "check"); ("shards", Json.Int 1);
            ("owners", Json.List [ Json.Int 0 ]); ("self", Json.Int 0);
            ("solo_budget", Json.Int 300);
            ("inputs", Json.List [ Json.Int 0; Json.Int 1 ]) ])
   with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.fail m);
  let code_of fields =
    match Msg.result_of_envelope (call fields) with
    | Ok _ -> "ok"
    | Error (code, _) -> code
  in
  let ingest block =
    [ ("op", Json.Str "cluster-ingest"); search; ("seq", Json.Int 1);
      ("reset", Json.Bool true); ("cands", Json.Str block) ]
  in
  List.iter
    (fun (what, block) ->
      Alcotest.(check string) what "bad-request" (code_of (ingest block)))
    [
      ("bad base64", "!!!!");
      ("truncated varint", "gA==");
      ("unknown local ref", Msg.cands_to_block [ Msg.Local 5 ]);
      ("remote key off its schedule",
        Msg.cands_to_block [ Msg.Remote ("not a key", [ Execution.ev 0 ]) ]);
      ("unreplayable schedule",
        Msg.cands_to_block [ Msg.Remote ("k", [ Execution.ev 9 ]) ]);
    ];
  Alcotest.(check string) "missing block" "bad-request"
    (code_of [ ("op", Json.Str "cluster-expand"); search; ("seq", Json.Int 1) ]);
  Alcotest.(check string) "unknown pending item" "bad-request"
    (code_of
       [ ("op", Json.Str "cluster-expand"); search; ("seq", Json.Int 1);
         ("items", Json.Str (Msg.ints_to_block [ 3 ])) ]);
  (* none of the refusals consumed seq 1: the root still ingests *)
  Alcotest.(check string) "root ingests" "ok"
    (code_of (ingest (Msg.cands_to_block [ Msg.Local 0 ])))

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
      Alcotest.test_case "differential: racing-rand n=3 (1/2/3 workers)" `Quick
        test_differential_racing_rand_n3;
      Alcotest.test_case "differential: violation n=3, 3 workers" `Quick
        test_differential_violation_n3;
      Alcotest.test_case "refusal is not a dead worker" `Quick
        test_refusal_is_not_death;
      Alcotest.test_case "worker: malformed blocks are bad-request" `Quick
        test_malformed_blocks_rejected;
    ] )
