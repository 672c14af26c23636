open Ts_model
open Ts_core
module Obs = Ts_obs.Obs

type violation =
  | Agreement_violation of { inputs : Value.t array; schedule : Execution.event list; values : Value.t list }
  | Validity_violation of { inputs : Value.t array; schedule : Execution.event list; value : Value.t }
  | Solo_stuck of { inputs : Value.t array; schedule : Execution.event list; pid : int }
  | Crash_stuck of {
      inputs : Value.t array;
      schedule : Execution.event list;
      crashed : int list;
      survivors : int list;
    }

type stats = {
  configs_explored : int;
  truncated : bool;
  deepest : int;
  table_hits : int;
  table_misses : int;
  peak_frontier : int;
  solo_cache_hits : int;
  solo_cache_misses : int;
}

let empty_stats =
  {
    configs_explored = 0;
    truncated = false;
    deepest = 0;
    table_hits = 0;
    table_misses = 0;
    peak_frontier = 0;
    solo_cache_hits = 0;
    solo_cache_misses = 0;
  }

let merge_stats a b =
  {
    configs_explored = a.configs_explored + b.configs_explored;
    truncated = a.truncated || b.truncated;
    deepest = max a.deepest b.deepest;
    table_hits = a.table_hits + b.table_hits;
    table_misses = a.table_misses + b.table_misses;
    peak_frontier = max a.peak_frontier b.peak_frontier;
    solo_cache_hits = a.solo_cache_hits + b.solo_cache_hits;
    solo_cache_misses = a.solo_cache_misses + b.solo_cache_misses;
  }

type result = {
  verdict : (unit, violation) Stdlib.result;
  stats : stats;
  stopped : Budget.breach option;
  worker_errors : (int * string) list;
}

(* The solo/group-termination probes of one search, with their cache and
   its hit/miss accounting. *)
type 's prober = {
  proto : 's Protocol.t;
  pk : 's Ckey.packer;
  cache : bool Ckey.Salted_tbl.t;
  cache_loc : string;
  solo_budget : int;
  guard : Budget.t;
  mutable probe_hits : int;
  mutable probe_misses : int;
}

let prober proto ~solo_budget ~guard ~loc =
  {
    proto;
    pk = Ckey.packer proto;
    cache = Ckey.Salted_tbl.create 256;
    cache_loc = Trace.fresh_loc loc;
    solo_budget;
    guard;
    probe_hits = 0;
    probe_misses = 0;
  }

(* Can some process of [ps], with only (undecided) members of [ps] taking
   steps from [cfg], decide within [solo_budget] steps for some resolution
   of the coin flips?  BFS over schedules with a visited set (BFS + visited
   is complete for "reachable within budget").  Both the memo and the
   visited table key by the packed configuration, salted with the
   participant mask.  [Pset.singleton p] gives the classic solo-termination
   probe; larger sets give the survivor-group probes of the t-resilience
   check. *)
let group_can_decide pr cfg ps =
  let key = Ckey.Salted.make (Ckey.pack pr.pk cfg) (Pset.to_mask ps) in
  Trace.access ~loc:pr.cache_loc Trace.Read ~atomic:false;
  match Ckey.Salted_tbl.find_opt pr.cache key with
  | Some r ->
    pr.probe_hits <- pr.probe_hits + 1;
    r
  | None ->
    pr.probe_misses <- pr.probe_misses + 1;
    let fr =
      Frontier.create ~key:(Ckey.pack pr.pk) ~size:64 ~loc:"explore.probe"
        ~max_depth:pr.solo_budget
    in
    Frontier.add fr cfg cfg;
    let found = ref false in
    Frontier.run fr
      ~visit:(fun cfg _ ->
        Budget.charge pr.guard 1;
        if Pset.exists (fun p -> Config.has_decided cfg p <> None) ps then begin
          found := true;
          Frontier.Stop
        end
        else Frontier.Expand)
      ~expand:(fun cfg ->
        Config.iter_successors pr.proto cfg ps (fun _ _ cfg' -> Frontier.add fr cfg' cfg'));
    Trace.access ~loc:pr.cache_loc Trace.Write ~atomic:false;
    Ckey.Salted_tbl.replace pr.cache key !found;
    !found

exception Found of violation

(* The property checks one dequeued configuration undergoes: [check cfg
   rev_sched] raises [Found] with the first violation, building the
   forward schedule only then. *)
type 's examiner = {
  check : 's Config.t -> Execution.event list -> unit;
  probes : 's prober;
}

let consensus_examiner proto ~k ~inputs ~solo_budget ~check_solo ~guard =
  let pr = prober proto ~solo_budget ~guard ~loc:"explore.solo_cache" in
  let check cfg rev_sched =
    let schedule () = List.rev rev_sched in
    let decided = Config.decided_values cfg in
    List.iter
      (fun v ->
        if not (Array.exists (Value.equal v) inputs) then
          raise (Found (Validity_violation { inputs; schedule = schedule (); value = v })))
      decided;
    if List.length decided > k then
      raise (Found (Agreement_violation { inputs; schedule = schedule (); values = decided }));
    if check_solo then
      for p = 0 to proto.Protocol.num_processes - 1 do
        if Config.has_decided cfg p = None
           && not (group_can_decide pr cfg (Pset.singleton p))
        then raise (Found (Solo_stuck { inputs; schedule = schedule (); pid = p }))
      done
  in
  { check; probes = pr }

(* All process subsets of size [t], as Pset masks in increasing mask
   order.  n <= 62 (Pset's representation bound), and t-resilience checks
   are meant for small n, so plain mask enumeration is fine. *)
let subsets_of_size n t =
  let rec go mask acc =
    if mask < 0 then acc
    else
      go (mask - 1)
        (let rec popcount m c = if m = 0 then c else popcount (m land (m - 1)) (c + 1) in
         if popcount mask 0 = t then
           Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) :: acc
         else acc)
  in
  go ((1 lsl n) - 1) []

(* From every reachable configuration, after crash-stopping any set of
   exactly [t] processes (smaller crash sets only enlarge the survivor
   group, and a group that contains a live one is live), the surviving
   group must still be able to reach a decision on its own within
   [solo_budget] steps. *)
let resilience_examiner proto ~t ~inputs ~solo_budget ~guard =
  let n = proto.Protocol.num_processes in
  if t < 0 || t >= n then
    invalid_arg "Explore.check_t_resilient: need 0 <= t <= n-1";
  let crash_sets = subsets_of_size n t in
  let pr = prober proto ~solo_budget ~guard ~loc:"explore.group_cache" in
  let check cfg rev_sched =
    List.iter
      (fun f ->
        let survivors = Pset.diff (Pset.all n) f in
        if not (group_can_decide pr cfg survivors) then
          raise
            (Found
               (Crash_stuck
                  {
                    inputs;
                    schedule = List.rev rev_sched;
                    crashed = Pset.to_list f;
                    survivors = Pset.to_list survivors;
                  })))
      crash_sets
  in
  { check; probes = pr }

let examine ex cfg ~schedule =
  let before = ex.probes.probe_misses in
  let vio =
    match ex.check cfg (List.rev schedule) with () -> None | exception Found v -> Some v
  in
  vio, ex.probes.probe_misses - before

(* Close one finished per-vector search into the profiler: span attributes
   for the phase table, counter increments for the bench metrics blob.
   The span is entered by [observed_bfs] around [bfs_reachable]. *)
let observe_vector sp r =
  let s = r.stats in
  Obs.set_int sp "configs" s.configs_explored;
  Obs.set_int sp "deepest" s.deepest;
  Obs.set_bool sp "truncated" s.truncated;
  Obs.set_bool sp "violation" (Result.is_error r.verdict);
  Obs.close sp;
  Obs.Metrics.incr "explore.vectors";
  Obs.Metrics.incr ~by:s.configs_explored "explore.configs_explored";
  Obs.Metrics.incr ~by:s.table_hits "explore.table_hits";
  Obs.Metrics.incr ~by:s.table_misses "explore.table_misses";
  Obs.Metrics.incr ~by:s.solo_cache_hits "explore.solo_cache_hits";
  Obs.Metrics.incr ~by:s.solo_cache_misses "explore.solo_cache_misses";
  Obs.Metrics.gauge_max "explore.peak_frontier" s.peak_frontier;
  Obs.Metrics.gauge_max "explore.deepest" s.deepest

(* One input vector's search, self-contained: its own packer, tables,
   examiner and counters.  Every dequeued configuration is examined; a
   configuration at [max_depth] or past the [max_configs]-th is not
   expanded.  This is the unit of parallelism — runs of different input
   vectors share nothing, so fanning them out over domains produces
   bit-identical verdicts and stats. *)
let bfs_reachable proto ~inputs ~max_configs ~max_depth ~guard ex =
  let pk = Ckey.packer proto in
  (* sized to the budget, not a fixed large block: small searches (few
     dozen configurations per input vector) shouldn't pay for 4096-bucket
     tables they never fill *)
  let fr =
    Frontier.create ~key:(Ckey.pack pk) ~size:(max 64 (min 4096 (max_configs / 8)))
      ~loc:"explore.visited" ~max_depth
  in
  let all = Pset.all proto.Protocol.num_processes in
  let cfg0 = Config.initial proto ~inputs in
  Frontier.add fr cfg0 (cfg0, []);
  let capped = ref false in
  let verdict, stopped =
    match
      Frontier.run fr
        ~visit:(fun (cfg, rev_sched) _ ->
          Budget.charge guard 1;
          ex.check cfg rev_sched;
          if Frontier.explored fr >= max_configs then begin
            capped := true;
            Frontier.Skip
          end
          else Frontier.Expand)
        ~expand:(fun (cfg, rev_sched) ->
          Config.iter_successors proto cfg all (fun pid coin cfg' ->
              if Frontier.offer fr cfg' then
                Frontier.push fr (cfg', { Execution.pid; coin } :: rev_sched)))
    with
    | () -> Ok (), None
    | exception Found v -> Error v, None
    | exception Budget.Exhausted b ->
      capped := true;
      Ok (), Some b
  in
  let stats =
    {
      configs_explored = Frontier.explored fr;
      truncated = !capped || Frontier.depth_capped fr;
      deepest = Frontier.deepest fr;
      table_hits = Frontier.hits fr;
      table_misses = Frontier.misses fr;
      peak_frontier = Frontier.peak fr;
      solo_cache_hits = ex.probes.probe_hits;
      solo_cache_misses = ex.probes.probe_misses;
    }
  in
  { verdict; stats; stopped; worker_errors = [] }

(* [bfs_reachable] wrapped in an ["explore.vector"] span; a raising
   protocol callback must not leak the span (its close runs on this
   domain's parent stack). *)
let observed_bfs proto ~inputs ~max_configs ~max_depth ~guard ex =
  let sp = Obs.enter ~cat:"explore" "explore.vector" in
  match bfs_reachable proto ~inputs ~max_configs ~max_depth ~guard ex with
  | r ->
    observe_vector sp r;
    r
  | exception e ->
    Obs.close sp;
    raise e

(* Fan one self-contained per-vector search out over the input vectors and
   reassemble.  The fold walks results in input order up to and including
   the first violation, so the parallel path (which computes results for
   every vector) reports exactly what the serial early-exit reports.  With
   [domains > 1] a crashed worker — a raising protocol callback, say —
   surfaces as a per-vector entry in [worker_errors] while completed
   sibling verdicts survive; serially the exception propagates as usual. *)
let run_vectors ~domains run inputs_list =
  let results =
    if domains <= 1 then begin
      (* serial: stop after the first violating input vector *)
      let rec go acc = function
        | [] -> List.rev acc
        | inputs :: rest ->
          let r = run inputs in
          (match r.verdict with
           | Error _ -> List.rev (Ok r :: acc)
           | Ok () -> go (Ok r :: acc) rest)
      in
      go [] inputs_list
    end
    else Par.map_list_outcomes ~domains run inputs_list
  in
  let rec fold acc stopped errs idx = function
    | [] -> { verdict = Ok (); stats = acc; stopped; worker_errors = List.rev errs }
    | Error e :: rest ->
      fold acc stopped ((idx, Printexc.to_string e) :: errs) (idx + 1) rest
    | Ok r :: rest ->
      let acc = merge_stats acc r.stats in
      let stopped = if stopped = None then r.stopped else stopped in
      (match r.verdict with
       | Error _ -> { r with stats = acc; stopped; worker_errors = List.rev errs }
       | Ok () -> fold acc stopped errs (idx + 1) rest)
  in
  fold empty_stats None [] 0 results

let check_set_agreement ?(domains = 1) ?(budget = Budget.unlimited) ~k proto
    ~inputs_list ~max_configs ~max_depth ~solo_budget ~check_solo =
  run_vectors ~domains
    (fun inputs ->
      observed_bfs proto ~inputs ~max_configs ~max_depth ~guard:budget
        (consensus_examiner proto ~k ~inputs ~solo_budget ~check_solo ~guard:budget))
    inputs_list

let check_consensus ?domains ?budget proto =
  check_set_agreement ?domains ?budget ~k:1 proto

let check_t_resilient ?(domains = 1) ?(budget = Budget.unlimited) ~t proto ~inputs_list
    ~max_configs ~max_depth ~solo_budget =
  run_vectors ~domains
    (fun inputs ->
      observed_bfs proto ~inputs ~max_configs ~max_depth ~guard:budget
        (resilience_examiner proto ~t ~inputs ~solo_budget ~guard:budget))
    inputs_list

(* --- counterexample replay -------------------------------------------- *)

let values_equal xs ys =
  List.length xs = List.length ys && List.for_all2 Value.equal xs ys

(* A reported violation must survive an independent replay: re-apply its
   schedule step by step ([Execution.apply] is [Config.step] folded) from
   the initial configuration and re-check the claimed property failure. *)
let replay ?(solo_budget = 300) proto violation =
  Obs.with_span ~cat:"explore" "explore.replay" @@ fun _sp ->
  let apply inputs schedule =
    match Execution.apply proto (Config.initial proto ~inputs) schedule with
    | cfg, _ -> Ok cfg
    | exception exn -> Error ("schedule does not replay: " ^ Printexc.to_string exn)
  in
  let stuck_group inputs schedule group what =
    Result.bind (apply inputs schedule) (fun cfg ->
        match Pset.to_list (Pset.filter (fun p -> Config.has_decided cfg p <> None) group) with
        | p :: _ -> Error (Printf.sprintf "p%d decided on replay; %s not stuck" p what)
        | [] ->
          let pr =
            prober proto ~solo_budget ~guard:Budget.unlimited ~loc:"explore.replay_cache"
          in
          if group_can_decide pr cfg group
          then Error (what ^ " can decide on replay")
          else Ok ())
  in
  match violation with
  | Agreement_violation { inputs; schedule; values } ->
    Result.bind (apply inputs schedule) (fun cfg ->
        if values_equal (Config.decided_values cfg) values then Ok ()
        else Error "replayed configuration decides a different value set")
  | Validity_violation { inputs; schedule; value } ->
    Result.bind (apply inputs schedule) (fun cfg ->
        if not (List.exists (Value.equal value) (Config.decided_values cfg)) then
          Error "claimed invalid value not decided on replay"
        else if Array.exists (Value.equal value) inputs then
          Error "claimed invalid value is among the inputs"
        else Ok ())
  | Solo_stuck { inputs; schedule; pid } ->
    stuck_group inputs schedule (Pset.singleton pid) (Printf.sprintf "p%d solo" pid)
  | Crash_stuck { inputs; schedule; survivors; _ } ->
    stuck_group inputs schedule (Pset.of_list survivors) "survivor group"

let binary_inputs n =
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun tl -> [ 0 :: tl; 1 :: tl ]) rest
  in
  List.map (fun bits -> Array.of_list (List.map Value.int bits)) (go n)

let violation_kind = function
  | Agreement_violation _ -> "agreement"
  | Validity_violation _ -> "validity"
  | Solo_stuck _ -> "solo-termination"
  | Crash_stuck _ -> "resilience"

let violation_inputs = function
  | Agreement_violation { inputs; _ }
  | Validity_violation { inputs; _ }
  | Solo_stuck { inputs; _ }
  | Crash_stuck { inputs; _ } -> inputs

let violation_schedule = function
  | Agreement_violation { schedule; _ }
  | Validity_violation { schedule; _ }
  | Solo_stuck { schedule; _ }
  | Crash_stuck { schedule; _ } -> schedule

let pp_stats ppf s =
  Fmt.pf ppf
    "%d configs (deepest %d%s), frontier peak %d, table %d/%d hit/miss, solo cache %d/%d"
    s.configs_explored s.deepest
    (if s.truncated then ", truncated" else ", exhaustive")
    s.peak_frontier s.table_hits s.table_misses s.solo_cache_hits s.solo_cache_misses

let pp_violation ppf = function
  | Agreement_violation { inputs; values; schedule } ->
    Fmt.pf ppf "agreement violated: inputs=[%a] decided {%a} after %d steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      Fmt.(list ~sep:comma Value.pp) values
      (List.length schedule)
  | Validity_violation { inputs; value; schedule } ->
    Fmt.pf ppf "validity violated: inputs=[%a] decided %a after %d steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      Value.pp value (List.length schedule)
  | Solo_stuck { inputs; pid; schedule } ->
    Fmt.pf ppf
      "solo termination violated: inputs=[%a], p%d cannot decide solo after %d prefix steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      pid (List.length schedule)
  | Crash_stuck { inputs; crashed; survivors; schedule } ->
    Fmt.pf ppf
      "resilience violated: inputs=[%a], after %d steps crashing {%a} leaves survivors {%a} stuck"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      (List.length schedule)
      Fmt.(list ~sep:comma (fmt "p%d")) crashed
      Fmt.(list ~sep:comma (fmt "p%d")) survivors
