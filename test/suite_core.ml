(* The lower-bound engine: refined valency, lemmas, Theorem 1. *)
open Ts_model
open Ts_core
open Ts_protocols

let racing2 () = Valency.create (Racing.make ~n:2) ~horizon:40
let racing3 () = Valency.create (Racing.make ~n:3) ~horizon:60

let initial t =
  let proto = Valency.protocol t in
  let n = proto.Protocol.num_processes in
  Config.initial proto ~inputs:(Array.init n (fun p -> Value.int (if p = 1 then 1 else 0)))

let test_prop2_initial_valencies () =
  let t = racing2 () in
  let i0 = initial t in
  (* {p_v} is v-univalent from I (Proposition 2) *)
  Alcotest.(check (option int)) "{p0} 0-univalent" (Some 0)
    (Option.map Value.to_int (Valency.univalent_value t i0 (Pset.singleton 0)));
  Alcotest.(check (option int)) "{p1} 1-univalent" (Some 1)
    (Option.map Value.to_int (Valency.univalent_value t i0 (Pset.singleton 1)));
  Alcotest.(check bool) "{p0,p1} bivalent" true (Valency.is_bivalent t i0 (Pset.all 2))

let test_prop1_superset_can_decide () =
  let t = racing3 () in
  let i0 = initial t in
  (* Prop 1(ii): {p0} can decide 0, so any superset can *)
  List.iter
    (fun ps ->
      Alcotest.(check bool) "superset decides 0" true
        (Valency.can_decide t i0 ps Valency.zero <> None))
    [ Pset.of_list [ 0 ]; Pset.of_list [ 0; 1 ]; Pset.of_list [ 0; 2 ]; Pset.all 3 ]

let test_prop1_decided_configuration () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  (* run p0 solo to a decision; afterwards every set "can decide" 0 with
     the empty execution, and is 0-univalent (Prop 1(iv) + agreement) *)
  let cfg, _, d = Execution.solo proto i0 0 ~flips:(fun _ -> true) ~budget:1000 in
  Alcotest.(check (option int)) "p0 decided 0" (Some 0) (Option.map Value.to_int d);
  Alcotest.(check bool) "empty witness suffices" true
    (Valency.can_decide t cfg Pset.empty Valency.zero = Some []);
  Alcotest.(check (option int)) "{p1} now 0-univalent" (Some 0)
    (Option.map Value.to_int (Valency.univalent_value t cfg (Pset.singleton 1)))

let test_witnesses_replay () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  match Valency.classify t i0 (Pset.all 2) with
  | Valency.Bivalent (w0, w1) ->
    List.iter
      (fun (w, v) ->
        let cfg, _ = Execution.apply proto i0 w in
        Alcotest.(check bool) "witness decides claimed value" true
          (List.exists (Value.equal v) (Config.decided_values cfg)))
      [ w0, Valency.zero; w1, Valency.one ]
  | _ -> Alcotest.fail "initial configuration should be bivalent for {p0,p1}"

let test_memoization () =
  let t = racing2 () in
  let i0 = initial t in
  ignore (Valency.can_decide t i0 (Pset.all 2) Valency.zero);
  let s1 = Valency.searches t in
  ignore (Valency.can_decide t i0 (Pset.all 2) Valency.zero);
  Alcotest.(check int) "second query served from memo" s1 (Valency.searches t)

(* The joint search behind [classify] must answer exactly what two
   single-value [can_decide] searches answer, witness for witness, and run
   exactly as long as the longer of them. *)
let verdict_string =
  let sched = Fmt.(brackets (list ~sep:sp Execution.pp_event)) in
  function
  | Valency.Bivalent (w0, w1) -> Fmt.str "bivalent %a / %a" sched w0 sched w1
  | Valency.Univalent (v, w) -> Fmt.str "univalent %a %a" Value.pp v sched w
  | Valency.Blocked -> "blocked"

let joint_matches_single proto ~horizon cfg ps =
  let joint = Valency.create proto ~horizon in
  let single = Valency.create proto ~horizon in
  let got = Valency.classify joint cfg ps in
  let nodes () = (Valency.stats single).Valency.nodes_expanded in
  let w0 = Valency.can_decide single cfg ps Valency.zero in
  let n0 = nodes () in
  let w1 = Valency.can_decide single cfg ps Valency.one in
  let n1 = nodes () - n0 in
  let expected =
    match (w0, w1) with
    | Some w0, Some w1 -> Valency.Bivalent (w0, w1)
    | Some w0, None -> Valency.Univalent (Valency.zero, w0)
    | None, Some w1 -> Valency.Univalent (Valency.one, w1)
    | None, None -> Valency.Blocked
  in
  let what = Fmt.str "%s, P=%a" proto.Protocol.name Pset.pp ps in
  Alcotest.(check string) (what ^ ": verdict") (verdict_string expected) (verdict_string got);
  Alcotest.(check int) (what ^ ": one joint search") 1 (Valency.searches joint);
  Alcotest.(check int) (what ^ ": joint nodes = max of single")
    (max n0 n1) (Valency.stats joint).Valency.nodes_expanded

let test_joint_search_differential () =
  List.iter
    (fun proto ->
      let horizon = 30 in
      let n = proto.Protocol.num_processes in
      let i0 = initial (Valency.create proto ~horizon) in
      let schedule =
        match Theorem.theorem1_escalate proto ~initial_horizon:horizon with
        | Theorem.Complete c, _ -> c.Theorem.schedule
        | Theorem.Partial _, _ -> Alcotest.fail "Theorem 1 on n=3 should complete"
      in
      (* every fourth configuration along the witness, the last included *)
      let rec along cfg i = function
        | [] -> [ cfg ]
        | e :: rest ->
          let tail = along (fst (Execution.apply proto cfg [ e ])) (i + 1) rest in
          if i mod 4 = 0 then cfg :: tail else tail
      in
      List.iter
        (fun cfg ->
          for mask = 1 to (1 lsl n) - 1 do
            let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
            joint_matches_single proto ~horizon cfg ps
          done)
        (along i0 0 schedule))
    [ Racing.make ~n:3; Racing.make_randomized ~n:3 ]

let test_joint_search_budget () =
  (* racing n=2 from I is bivalent; cap the budget at the shorter
     single-value search, so the joint search finds one witness and then
     trips *)
  let proto = Racing.make ~n:2 in
  let horizon = 20 and ps = Pset.all 2 in
  let i0 = initial (Valency.create proto ~horizon) in
  let single_nodes v =
    let t = Valency.create proto ~horizon in
    ignore (Valency.can_decide t i0 ps v);
    (Valency.stats t).Valency.nodes_expanded
  in
  let n0 = single_nodes Valency.zero and n1 = single_nodes Valency.one in
  Alcotest.(check bool) "the two searches differ in length" true (n0 <> n1);
  let t = Valency.create ~budget:(Budget.create ~max_nodes:(min n0 n1) ()) proto ~horizon in
  let trips f = match f () with _ -> false | exception Budget.Exhausted _ -> true in
  Alcotest.(check bool) "joint search trips" true
    (trips (fun () -> Valency.classify t i0 ps));
  (* a memoized answer would come back without charging the spent budget *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "answer not memoized" true
        (trips (fun () -> Valency.can_decide t i0 ps v)))
    [ Valency.zero; Valency.one ];
  Alcotest.(check int) "no memo hits" 0 (Valency.stats t).Valency.memo_hits

let test_lemma1_requires_three () =
  let t = racing2 () in
  Alcotest.check_raises "|P| >= 3" (Invalid_argument "Lemmas.lemma1: |P| must be >= 3")
    (fun () -> ignore (Lemmas.lemma1 t (initial t) (Pset.all 2)))

let test_lemma1_racing3 () =
  let t = racing3 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let { Lemmas.phi; z } = Lemmas.lemma1 t i0 (Pset.all 3) in
  let cfg, _ = Execution.apply proto i0 phi in
  Alcotest.(check bool) "P - {z} bivalent after phi" true
    (Valency.is_bivalent t cfg (Pset.remove z (Pset.all 3)));
  Alcotest.(check bool) "phi is P-only" true
    (Pset.subset (Execution.participants (snd (Execution.apply proto i0 phi))) (Pset.all 3))

let test_solo_deciding () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let zeta = Lemmas.solo_deciding t i0 1 in
  let cfg, trace = Execution.apply proto i0 zeta in
  Alcotest.(check bool) "z decided" true (Config.has_decided cfg 1 <> None);
  Alcotest.(check (list int)) "only z took steps" [ 1 ]
    (Pset.to_list (Execution.participants trace))

let test_split_at_uncovered_write () =
  let t = racing2 () in
  let i0 = initial t in
  let zeta = Lemmas.solo_deciding t i0 0 in
  let prefix, cfg, r = Lemmas.split_at_uncovered_write t i0 0 ~covered:[] ~zeta in
  (* with nothing covered, the split stops at the very first write *)
  (match Config.poised (Valency.protocol t) cfg 0 with
   | Some (Action.Write (r', _)) -> Alcotest.(check int) "poised at reported register" r r'
   | _ -> Alcotest.fail "not poised at a write");
  let _, trace = Execution.apply (Valency.protocol t) i0 prefix in
  Alcotest.(check (list int)) "prefix contains no writes" []
    (Execution.written_registers trace)

let test_lemma2_holds_on_initial () =
  let t = racing2 () in
  Alcotest.(check bool) "deciding solo execution must write fresh" true
    (Lemmas.lemma2_holds t (initial t) ~r:Pset.empty ~z:0)

let test_lemma3_via_nice_configuration () =
  let t = racing3 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let nice = Theorem.lemma4 t i0 (Pset.all 3) in
  Alcotest.(check int) "one covering process" 1 (Pset.cardinal nice.Theorem.cover);
  Alcotest.(check bool) "pair bivalent" true
    (Valency.is_bivalent t nice.Theorem.cfg nice.Theorem.q_pair);
  Alcotest.(check bool) "cover well spread" true
    (Covering.well_spread proto nice.Theorem.cfg nice.Theorem.cover);
  let l3 = Lemmas.lemma3 t nice.Theorem.cfg ~p:(Pset.all 3) ~r:nice.Theorem.cover in
  (* re-verify the lemma's guarantee *)
  let beta = Covering.block_write nice.Theorem.cover in
  let cfg', _ = Execution.apply proto nice.Theorem.cfg (l3.Lemmas.phi3 @ beta) in
  Alcotest.(check bool) "R ∪ {q} bivalent after phi·beta" true
    (Valency.is_bivalent t cfg' (Pset.add l3.Lemmas.q nice.Theorem.cover));
  Alcotest.(check bool) "q is in the pair" true (Pset.mem l3.Lemmas.q nice.Theorem.q_pair)

let test_lemma3_premises () =
  let t = racing3 () in
  let i0 = initial t in
  Alcotest.check_raises "R empty rejected" (Invalid_argument "Lemmas.lemma3: R must be non-empty")
    (fun () -> ignore (Lemmas.lemma3 t i0 ~p:(Pset.all 3) ~r:Pset.empty));
  Alcotest.check_raises "R must cover" (Invalid_argument "Lemmas.lemma3: R is not a covering set")
    (fun () -> ignore (Lemmas.lemma3 t i0 ~p:(Pset.all 3) ~r:(Pset.singleton 0)))

let check_certificate t =
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers written" true
    (List.length cert.Theorem.registers_written >= cert.Theorem.n - 1);
  (match Theorem.verify cert (Valency.protocol t) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "certificate replay failed: %s" e);
  cert

let test_theorem1_n2 () =
  let cert = check_certificate (racing2 ()) in
  Alcotest.(check int) "n" 2 cert.Theorem.n

let test_theorem1_randomized () =
  (* the bound covers randomized protocols: coins are resolved
     adversarially by the oracle (nondeterministic solo termination) *)
  let t = Valency.create (Racing.make_randomized ~n:2) ~horizon:40 in
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers" true
    (List.length cert.Theorem.registers_written >= 1);
  (match Theorem.verify cert (Racing.make_randomized ~n:2) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "randomized replay failed: %s" e)

let test_theorem1_randomized_n3 () =
  let t = Valency.create (Racing.make_randomized ~n:3) ~horizon:70 in
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers" true
    (List.length cert.Theorem.registers_written >= 2)

let test_theorem1_n3 () =
  let cert = check_certificate (racing3 ()) in
  Alcotest.(check int) "n" 3 cert.Theorem.n;
  Alcotest.(check int) "covered registers at nice configuration" 1
    (List.length cert.Theorem.covered_registers);
  Alcotest.(check bool) "fresh register is fresh" true
    (not (List.mem cert.Theorem.fresh_register cert.Theorem.covered_registers))

let test_theorem1_auto_deepens () =
  (* start hopeless, let iterative deepening find a sufficient horizon *)
  let cert, horizon =
    Theorem.theorem1_auto (Racing.make ~n:2) ~initial_horizon:2 ~max_horizon:128
  in
  Alcotest.(check bool) "horizon grew" true (horizon > 2);
  Alcotest.(check bool) "certificate valid" true
    (List.length cert.Theorem.registers_written >= 1)

let test_theorem1_auto_gives_up () =
  Alcotest.(check bool) "max horizon respected" true
    (match Theorem.theorem1_auto (Racing.make ~n:3) ~initial_horizon:2 ~max_horizon:4 with
     | _ -> false
     | exception Valency.Horizon_exceeded _ -> true)

let test_theorem1_small_horizon_raises () =
  let t = Valency.create (Racing.make ~n:3) ~horizon:5 in
  Alcotest.(check bool) "horizon exceeded" true
    (match Theorem.theorem1 t with
     | _ -> false
     | exception Valency.Horizon_exceeded _ -> true)

let test_budget_guard () =
  Alcotest.(check bool) "non-positive limit rejected" true
    (match Budget.create ~max_nodes:0 () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  Budget.charge Budget.unlimited 1_000_000;
  Budget.check Budget.unlimited;
  let b = Budget.create ~max_nodes:100 () in
  Budget.charge b 60;
  Alcotest.(check int) "spent counts" 60 (Budget.spent b);
  Alcotest.(check bool) "not yet breached" true (Budget.breached b = None);
  Alcotest.(check bool) "node cap trips" true
    (match Budget.charge b 60 with
     | () -> false
     | exception Budget.Exhausted (Budget.Node_cap _) -> true);
  (* an expired deadline is caught by check without charging *)
  let d = Budget.create ~deadline:0.002 () in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "deadline trips" true
    (match Budget.check d with
     | () -> false
     | exception Budget.Exhausted (Budget.Deadline _) -> true)

let test_theorem1_budget_partial () =
  (* a capped run degrades to a structured partial outcome, not an
     exception or a hang *)
  let proto = Racing.make ~n:2 in
  let t = Valency.create ~budget:(Budget.create ~max_nodes:5 ()) proto ~horizon:40 in
  match Theorem.theorem1_outcome t with
  | Theorem.Partial (Theorem.Out_of_budget (Budget.Node_cap _), p) ->
    Alcotest.(check int) "progress reports the horizon" 40 p.Theorem.horizon;
    Alcotest.(check bool) "some oracle work recorded" true (p.Theorem.nodes_expanded > 0)
  | Theorem.Partial (s, _) -> Alcotest.failf "wrong stop: %a" Theorem.pp_stop s
  | Theorem.Complete _ -> Alcotest.fail "5 nodes cannot complete the construction"

let test_escalation_completes_like_unbounded () =
  (* the acceptance path: the escalation wrapper, given room, produces the
     same certificate as a plain unbounded run *)
  let proto = Racing.make ~n:2 in
  let unbounded = Theorem.theorem1 (Valency.create proto ~horizon:40) in
  (match Theorem.theorem1_escalate proto ~initial_horizon:40 with
   | Theorem.Complete cert, horizon ->
     Alcotest.(check int) "no escalation needed" 40 horizon;
     Alcotest.(check bool) "same schedule" true
       (cert.Theorem.schedule = unbounded.Theorem.schedule);
     Alcotest.(check bool) "same registers" true
       (cert.Theorem.registers_written = unbounded.Theorem.registers_written)
   | Theorem.Partial (s, _), _ -> Alcotest.failf "unexpected partial: %a" Theorem.pp_stop s);
  (* starting hopeless, it escalates to the same certificate *)
  match Theorem.theorem1_escalate proto ~initial_horizon:2 ~retries:6 with
  | Theorem.Complete cert, horizon ->
    Alcotest.(check bool) "horizon grew" true (horizon > 2);
    Alcotest.(check bool) "same registers after escalation" true
      (cert.Theorem.registers_written = unbounded.Theorem.registers_written)
  | Theorem.Partial (s, _), _ -> Alcotest.failf "escalation failed: %a" Theorem.pp_stop s

let test_escalation_respects_budget () =
  (* the budget spans all attempts: a tiny allowance stops the retry loop *)
  match
    Theorem.theorem1_escalate ~budget:(Budget.create ~max_nodes:5 ())
      (Racing.make ~n:2) ~initial_horizon:40
  with
  | Theorem.Partial (Theorem.Out_of_budget _, _), _ -> ()
  | Theorem.Complete _, _ -> Alcotest.fail "5 nodes cannot complete the construction"
  | Theorem.Partial (Theorem.Horizon_wall _, _), _ ->
    Alcotest.fail "budget should trip before the horizon at depth 40"

let test_verify_detects_tampering () =
  let cert = Theorem.theorem1 (racing2 ()) in
  let tampered = { cert with Theorem.registers_written = [] } in
  Alcotest.(check bool) "tampered certificate rejected" true
    (Theorem.verify tampered (Racing.make ~n:2) <> Ok ());
  Alcotest.(check bool) "wrong protocol rejected" true
    (Theorem.verify cert (Racing.make ~n:3) <> Ok ())

let test_certificate_pp () =
  let cert = Theorem.theorem1 (racing2 ()) in
  let s = Format.asprintf "%a" Theorem.pp_certificate cert in
  Alcotest.(check bool) "mentions the bound" true
    (String.length s > 0 && String.split_on_char '\n' s <> [])

let test_bounds () =
  Alcotest.(check int) "zhu 8" 7 (Bounds.zhu_space 8);
  Alcotest.(check int) "fhs 16" 4 (Bounds.fhs_space 16);
  Alcotest.(check int) "fhs 17 rounds up" 5 (Bounds.fhs_space 17);
  Alcotest.(check int) "upper" 8 (Bounds.known_upper_space 8);
  Alcotest.(check int) "jtt" 7 (Bounds.jtt_space 8);
  Alcotest.(check bool) "n log n" true (abs_float (Bounds.fan_lynch_cost 8 -. 24.) < 1e-9);
  Alcotest.(check bool) "log2 4! = log2 24" true
    (abs_float (Bounds.log2_factorial 4 -. (log 24. /. log 2.)) < 1e-9);
  Alcotest.(check bool) "attiya-censor" true (Bounds.attiya_censor_steps 7 = 49);
  Alcotest.(check bool) "leader space grows slowly" true (Bounds.leader_election_space 64 <= 8)

let test_covering_helpers () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  (* drive p0 to its first write: it covers that register *)
  let zeta = Lemmas.solo_deciding t i0 0 in
  let prefix, cfg, r = Lemmas.split_at_uncovered_write t i0 0 ~covered:[] ~zeta in
  ignore prefix;
  Alcotest.(check bool) "is_covering" true (Covering.is_covering proto cfg (Pset.singleton 0));
  Alcotest.(check (list int)) "covered_set" [ r ] (Covering.covered_set proto cfg (Pset.singleton 0));
  Alcotest.(check bool) "well_spread singleton" true (Covering.well_spread proto cfg (Pset.singleton 0));
  Alcotest.(check int) "block write schedule" 1 (List.length (Covering.block_write (Pset.singleton 0)));
  Alcotest.(check int) "empty block write" 0 (List.length (Covering.block_write Pset.empty))

let suite =
  ( "core-engine",
    [
      Alcotest.test_case "Prop 2: initial valencies" `Quick test_prop2_initial_valencies;
      Alcotest.test_case "Prop 1(ii): supersets decide" `Quick test_prop1_superset_can_decide;
      Alcotest.test_case "decided configurations" `Quick test_prop1_decided_configuration;
      Alcotest.test_case "bivalence witnesses replay" `Quick test_witnesses_replay;
      Alcotest.test_case "valency memoization" `Quick test_memoization;
      Alcotest.test_case "lemma 1 arity check" `Quick test_lemma1_requires_three;
      Alcotest.test_case "lemma 1 on racing-3" `Slow test_lemma1_racing3;
      Alcotest.test_case "solo deciding executions" `Quick test_solo_deciding;
      Alcotest.test_case "split at uncovered write" `Quick test_split_at_uncovered_write;
      Alcotest.test_case "lemma 2 on initial configuration" `Quick test_lemma2_holds_on_initial;
      Alcotest.test_case "lemmas 3+4 via nice configuration" `Slow test_lemma3_via_nice_configuration;
      Alcotest.test_case "lemma 3 premises enforced" `Quick test_lemma3_premises;
      Alcotest.test_case "Theorem 1 on racing-2" `Quick test_theorem1_n2;
      Alcotest.test_case "Theorem 1 on racing-3" `Slow test_theorem1_n3;
      Alcotest.test_case "Theorem 1 on randomized racing-2" `Quick test_theorem1_randomized;
      Alcotest.test_case "Theorem 1 on randomized racing-3" `Slow test_theorem1_randomized_n3;
      Alcotest.test_case "horizon too small raises" `Quick test_theorem1_small_horizon_raises;
      Alcotest.test_case "iterative deepening succeeds" `Quick test_theorem1_auto_deepens;
      Alcotest.test_case "iterative deepening bounded" `Quick test_theorem1_auto_gives_up;
      Alcotest.test_case "budget guard" `Quick test_budget_guard;
      Alcotest.test_case "budget-capped theorem 1 is partial" `Quick
        test_theorem1_budget_partial;
      Alcotest.test_case "escalation matches unbounded run" `Quick
        test_escalation_completes_like_unbounded;
      Alcotest.test_case "escalation respects the budget" `Quick
        test_escalation_respects_budget;
      Alcotest.test_case "verify detects tampering" `Quick test_verify_detects_tampering;
      Alcotest.test_case "certificate pretty-printing" `Quick test_certificate_pp;
      Alcotest.test_case "bound curves" `Quick test_bounds;
      Alcotest.test_case "covering helpers" `Quick test_covering_helpers;
      Alcotest.test_case "joint search = two single searches" `Slow
        test_joint_search_differential;
      Alcotest.test_case "tripped joint search memoizes nothing" `Quick
        test_joint_search_budget;
    ] )
