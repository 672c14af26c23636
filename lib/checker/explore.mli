(** Bounded exhaustive exploration of a protocol's configuration graph.

    Verifies the three consensus properties on all configurations reachable
    within the given bounds:

    - {b Agreement}: no reachable configuration contains two different
      decisions.
    - {b Validity}: every decision is one of the inputs.
    - {b Solo termination}: from every reachable configuration, every
      undecided process has a solo execution that decides within
      [solo_budget] steps (for protocols with coin flips, some resolution
      of the coins decides — Zhu's "nondeterministic solo termination").

    {!check_t_resilient} verifies the crash-fault analogue: from every
    reachable configuration, crash-stopping {e any} set of at most [t]
    processes leaves the surviving group able to reach a decision on its
    own.  Crash-stop faults don't alter the configuration, so this is
    group-decidability of every survivor set; by monotonicity (a superset
    of a live group is live) only the maximal crash sets, [|F| = t], need
    checking.

    Exploration is exhaustive up to [max_configs] distinct configurations
    and [max_depth] steps {e per input vector}; racing-style protocols have
    infinite reachable sets under adversarial scheduling, so a clean run is
    a *bounded* guarantee — [stats.truncated] says whether a bound was hit.
    A reported violation is always a genuine counterexample, replayable
    from the returned schedule ({!replay} does exactly that).

    Each input vector's search is fully self-contained (its own visited
    table, solo cache and budget), which is what makes the optional
    [?domains] fan-out sound: with [domains > 1] the vectors are checked in
    parallel on separate OCaml domains and the results reassembled in input
    order, so verdict {e and} stats are identical to a serial run.  Worker
    crashes are contained per input vector: a raising protocol callback
    surfaces in [result.worker_errors] while sibling verdicts survive.  All
    tables key by packed configuration keys ({!Ts_model.Ckey}) rather than
    polymorphic hashing.

    All entry points accept a {!Ts_core.Budget} guard.  A search that trips
    the guard stops cleanly: the verdict covers what was explored,
    [stats.truncated] is set, and [result.stopped] records the breach —
    a {e partial} result rather than an exception or a hang. *)

open Ts_model
open Ts_core

type violation =
  | Agreement_violation of { inputs : Value.t array; schedule : Execution.event list; values : Value.t list }
  | Validity_violation of { inputs : Value.t array; schedule : Execution.event list; value : Value.t }
  | Solo_stuck of { inputs : Value.t array; schedule : Execution.event list; pid : int }
  | Crash_stuck of {
      inputs : Value.t array;
      schedule : Execution.event list;
      crashed : int list;  (** the crash set [F], sorted *)
      survivors : int list;  (** the stuck survivor group, sorted *)
    }
      (** After running [schedule] from the initial configuration for
          [inputs], crash-stopping [crashed] leaves [survivors] unable to
          decide within the probe budget. *)

type stats = {
  configs_explored : int;
  truncated : bool;  (** true if max_configs, max_depth or the budget stopped a search *)
  deepest : int;  (** depth of the deepest configuration explored *)
  table_hits : int;  (** successor already in a visited table *)
  table_misses : int;  (** fresh configurations inserted *)
  peak_frontier : int;  (** high-water mark of the BFS queue *)
  solo_cache_hits : int;  (** solo/group-termination probes answered by the cache *)
  solo_cache_misses : int;  (** solo/group-termination probes that ran a BFS *)
}

type result = {
  verdict : (unit, violation) Stdlib.result;
  stats : stats;
  stopped : Budget.breach option;
      (** [Some b] if the {!Budget} guard stopped a search: the verdict is
          partial, covering only what was explored before the breach. *)
  worker_errors : (int * string) list;
      (** Input vectors (by index into [inputs_list]) whose parallel worker
          raised, with the exception text.  Always [[]] on serial runs,
          where the exception propagates instead. *)
}

(** [check_consensus proto ~inputs_list ~max_configs ~max_depth ~solo_budget
    ~check_solo] explores from each initial input vector and reports the
    violation of the earliest violating vector, if any.  [?domains]
    (default 1) fans the vectors out over that many OCaml domains;
    [?budget] (default {!Budget.unlimited}) bounds the whole call. *)
val check_consensus :
  ?domains:int ->
  ?budget:Budget.t ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  check_solo:bool ->
  result

(** [check_set_agreement ~k proto ...] is {!check_consensus} with agreement
    relaxed to k-set agreement: a configuration with more than [k] distinct
    decided values is an [Agreement_violation].  [check_consensus] is the
    [k = 1] case. *)
val check_set_agreement :
  ?domains:int ->
  ?budget:Budget.t ->
  k:int ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  check_solo:bool ->
  result

(** [check_t_resilient ~t proto ~inputs_list ~max_configs ~max_depth
    ~solo_budget] verifies [t]-resilient termination: from every reachable
    configuration, for every crash set [F] with [|F| = t], the survivor
    group [all - F] can still decide within [solo_budget] steps.  A failure
    is a {!Crash_stuck} witness; {!replay} re-validates it independently.
    [t = 0] degenerates to joint termination of the full group;
    [t = n - 1] is wait-freedom of every solo survivor.
    @raise Invalid_argument unless [0 <= t <= n-1]. *)
val check_t_resilient :
  ?domains:int ->
  ?budget:Budget.t ->
  t:int ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  result

(** The empty stats record: the unit of {!merge_stats}. *)
val empty_stats : stats

(** [merge_stats a b] folds two per-vector stats the way a multi-vector
    check reports them: counts add, high-water marks and depths take the
    maximum, truncation is sticky. *)
val merge_stats : stats -> stats -> stats

(** {2 Cluster hooks}

    The distributed search engine ({!module:Ts_cluster}) re-runs this
    module's BFS as a level-synchronous fan-out over worker nodes and
    certifies its answer {e byte-identical} to the serial one.  It expands
    with the serial successor order ({!Ts_model.Config.iter_successors})
    and examines with the serial search's own examiners, below. *)

type 's examiner
(** The property checks one dequeued configuration undergoes, packaged
    with its probe cache.  Build one per search; it is not thread-safe. *)

(** The consensus-property examine of {!check_consensus} /
    {!check_set_agreement}: validity, then [k]-agreement, then (when
    [check_solo]) per-pid solo termination in pid order.  Every probe node
    is charged to [guard]. *)
val consensus_examiner :
  's Protocol.t ->
  k:int ->
  inputs:Value.t array ->
  solo_budget:int ->
  check_solo:bool ->
  guard:Budget.t ->
  's examiner

(** The crash-resilience examine of {!check_t_resilient}: every crash set
    of size [t] in increasing mask order, survivor-group decidability
    probed within [solo_budget].  Every probe node is charged to [guard].
    @raise Invalid_argument unless [0 <= t <= n-1]. *)
val resilience_examiner :
  's Protocol.t ->
  t:int ->
  inputs:Value.t array ->
  solo_budget:int ->
  guard:Budget.t ->
  's examiner

(** [examine ex cfg ~schedule] checks one configuration and returns the
    violation (if any) together with the number of solo/group probes run
    — exactly the serial search's [solo_cache_misses] contribution for
    this configuration ({e every} probe misses: probe keys are distinct
    (configuration, mask) pairs and a deduplicated search examines each
    configuration once).  [schedule] is the forward schedule reaching
    [cfg], embedded in any violation witness. *)
val examine :
  's examiner ->
  's Config.t ->
  schedule:Execution.event list ->
  violation option * int

(** [replay proto v] independently re-validates a reported violation:
    re-applies its schedule step by step from the initial configuration
    (via {!Ts_model.Execution.apply}, i.e. [Config.step] folded) and
    re-checks the claimed property failure on the resulting configuration.
    [solo_budget] (default 300) bounds the re-run decidability probes for
    [Solo_stuck]/[Crash_stuck].  [Ok ()] means the counterexample is
    genuine; [Error msg] says what failed to reproduce. *)
val replay :
  ?solo_budget:int -> 's Protocol.t -> violation -> (unit, string) Stdlib.result

(** All 2^n binary input vectors for [n] processes. *)
val binary_inputs : int -> Value.t array list

(** Stable machine-readable tag of a violation's kind — ["agreement"],
    ["validity"], ["solo-termination"] or ["resilience"].  Part of the
    service wire vocabulary and the CLI [--json] output; keep the strings
    fixed. *)
val violation_kind : violation -> string

(** The input vector a violation was found under. *)
val violation_inputs : violation -> Value.t array

(** The violating schedule prefix. *)
val violation_schedule : violation -> Execution.event list

val pp_stats : Format.formatter -> stats -> unit
val pp_violation : Format.formatter -> violation -> unit
