(** Zhu's Lemma 4 and Theorem 1, as witness-producing constructions.

    {!lemma4} builds, for a bivalent set [P], an execution leading to a
    "nice" configuration: a pair of processes still bivalent while the
    other [|P| - 2] processes cover pairwise distinct registers.
    {!theorem1} composes it with Lemmas 2 and 3 into a complete execution
    of the protocol under test in which at least [n - 1] distinct registers
    are written — the executable content of the n−1 space lower bound.

    All intermediate facts are re-verified; the final certificate is
    additionally checked by replaying the execution from the initial
    configuration and counting written registers directly on the trace. *)

open Ts_model

(** A "nice" configuration reached from some base configuration. *)
type 's nice = {
  alpha : Execution.event list;  (** the P-only execution from the base *)
  cfg : 's Config.t;  (** the configuration [C·alpha] *)
  q_pair : Pset.t;  (** two processes, bivalent from [cfg] *)
  cover : Pset.t;  (** [P − q_pair], covering distinct registers in [cfg] *)
}

(** [lemma4 t c p] — Zhu's Lemma 4 by induction on [|p|], including the
    pigeonhole argument over covered register sets and the hidden-write
    insertion of the process removed by Lemma 1.  Requires [|p| >= 2] and
    [p] bivalent from [c] (checked). *)
val lemma4 : 's Valency.t -> 's Config.t -> Pset.t -> 's nice

(** Everything {!theorem1} established, with the raw material to audit it. *)
type certificate = {
  protocol_name : string;
  n : int;  (** number of processes *)
  inputs : Value.t array;  (** the bivalent initial assignment used *)
  schedule : Execution.event list;  (** full witness schedule from the initial configuration *)
  trace : Execution.trace;  (** its trace *)
  registers_written : Action.reg list;  (** distinct registers written in [trace] *)
  covered_registers : Action.reg list;  (** the distinct registers covered at the final nice configuration *)
  fresh_register : Action.reg;  (** the uncovered register the Lemma-2 process was forced to write *)
  oracle_searches : int;  (** valency searches spent *)
}

(** [theorem1 t] runs the whole construction from the canonical bivalent
    initial configuration (p0 has input 0, p1 input 1, the rest 0) and
    returns a certificate with
    [List.length registers_written >= n - 1].
    @raise Valency.Horizon_exceeded if the oracle horizon is too small.
    @raise Invalid_argument if the protocol has fewer than 2 processes. *)
val theorem1 : 's Valency.t -> certificate

(** How far a stopped construction got: the horizon it was using and the
    oracle work it had spent. *)
type progress = {
  horizon : int;
  searches : int;
  nodes_expanded : int;
}

(** Why a construction stopped short of a certificate. *)
type stop =
  | Out_of_budget of Budget.breach  (** the {!Budget} guard tripped *)
  | Horizon_wall of string  (** the oracle horizon could not verify a step *)

type outcome =
  | Complete of certificate
  | Partial of stop * progress

(** [theorem1_outcome t] is {!theorem1} with structured degradation: a
    tripped {!Budget} or an exhausted horizon yields [Partial] (logged as
    a ["log.info"] trace instant) instead of an exception.  [Invalid_argument] (caller
    errors) still raises. *)
val theorem1_outcome : 's Valency.t -> outcome

(** [theorem1_escalate ?budget ?retries proto ~initial_horizon] is the
    adaptive wrapper: on [Horizon_wall] the horizon doubles (geometric
    backoff, a fresh oracle per attempt) up to [retries] times (default 4).
    [budget] (default unlimited) spans {e all} attempts, so a capped run
    degrades to [Partial (Out_of_budget _, _)] rather than hanging.
    Returns the outcome and the last horizon tried. *)
val theorem1_escalate :
  ?budget:Budget.t ->
  ?retries:int ->
  's Protocol.t ->
  initial_horizon:int ->
  outcome * int

(** [theorem1_auto proto ~initial_horizon ~max_horizon] runs {!theorem1}
    with iterative deepening: on [Horizon_exceeded] the horizon doubles (a
    fresh oracle each time) until the construction succeeds or
    [max_horizon] is passed (in which case [Horizon_exceeded] is
    re-raised).  Returns the certificate and the horizon that sufficed.
    The exception-free equivalent is {!theorem1_escalate}. *)
val theorem1_auto :
  's Protocol.t -> initial_horizon:int -> max_horizon:int -> certificate * int

val pp_stop : Format.formatter -> stop -> unit
val pp_progress : Format.formatter -> progress -> unit

(** [verify cert proto] independently replays the certificate's schedule on
    a fresh initial configuration of [proto] and re-checks the register
    count.  Returns an error message on any mismatch. *)
val verify : certificate -> 's Protocol.t -> (unit, string) result

(** Human-readable rendering of a certificate: the space bound, the
    witness execution length and the registers it writes. *)
val pp_certificate : Format.formatter -> certificate -> unit
