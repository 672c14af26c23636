(** The refined valency oracle (Zhu, Definition 1 and Proposition 1).

    [P can decide v from C] iff there is a P-only execution from [C] in
    which [v] is decided.  [P] is bivalent from [C] if it can decide both 0
    and 1, and v-univalent if it can decide [v] but not [1-v].

    Exact valency is undecidable in general — the P-only reachable set of a
    protocol like racing counters is infinite — so the oracle searches up to
    a configurable [horizon] of steps.  Consequences, which the rest of the
    engine is built around:

    - a positive answer ([can_decide = Some w]) is always sound: [w] is a
      real P-only execution of the protocol deciding [v];
    - a negative answer means "not within [horizon] steps" and can
      misclassify a bivalent set as univalent if the horizon is too small.
      Every construction in {!Lemmas} and {!Theorem} therefore re-verifies
      its conclusion with positive witnesses, and raises
      {!Horizon_exceeded} instead of returning an unverified result.

    Coin flips ([Action.Flip]) are resolved nondeterministically — both
    outcomes are explored — which matches Zhu's "nondeterministic solo
    terminating" protocol class. *)

open Ts_model

type 's t
(** A memoizing oracle for one protocol instance. *)

exception Horizon_exceeded of string
(** Raised by engine components when a bounded-search answer could not be
    verified; retry with a larger horizon. *)

(** [create ?budget proto ~horizon] builds an oracle.  All visited/memo
    tables key by packed configurations ({!Ts_model.Ckey}).  Every search
    charges [budget] (default {!Budget.unlimited}) one node per expanded
    configuration and raises {!Budget.Exhausted} when it trips; the
    outcome-returning wrappers in {!Theorem} catch that and report a
    partial result. *)
val create : ?budget:Budget.t -> 's Protocol.t -> horizon:int -> 's t

val protocol : 's t -> 's Protocol.t
val horizon : 's t -> int

(** The resource guard this oracle charges. *)
val budget : 's t -> Budget.t

(** [can_decide t cfg ps v] is a P-only schedule from [cfg] after which [v]
    is decided, if the bounded search finds one.  A configuration in which
    some process has already decided [v] yields [Some []].  Witnesses are
    of minimal length and do not depend on which other queries were asked
    first. *)
val can_decide : 's t -> 's Config.t -> Pset.t -> Value.t -> Execution.event list option

(** Binary-consensus classification of [ps] from [cfg]. *)
type verdict =
  | Bivalent of Execution.event list * Execution.event list
      (** witnesses deciding 0 and 1 respectively *)
  | Univalent of Value.t * Execution.event list
      (** can decide only this value (within horizon) *)
  | Blocked  (** can decide neither within horizon *)

(** [classify t cfg ps] asks [can_decide] for both values at once: one
    breadth-first search answers whichever of the two (C, P, v) keys is not
    memoized, so the witnesses are exactly [can_decide]'s.  If the budget
    trips inside that search, neither answer is memoized. *)
val classify : 's t -> 's Config.t -> Pset.t -> verdict
val is_bivalent : 's t -> 's Config.t -> Pset.t -> bool

(** [univalent_value t cfg ps] is [Some v] if [ps] is v-univalent (within
    horizon) from [cfg]. *)
val univalent_value : 's t -> 's Config.t -> Pset.t -> Value.t option

(** BFS runs; one per [classify] miss (or [can_decide] miss). *)
val searches : 's t -> int

(** Cumulative search-engine counters of this oracle. *)
type stats = {
  searches : int;  (** BFS runs; one per [classify] miss (or [can_decide] miss) *)
  nodes_expanded : int;  (** configurations dequeued across all searches *)
  memo_hits : int;  (** (C, P, v) keys *)
  memo_misses : int;  (** (C, P, v) keys *)
  peak_frontier : int;  (** high-water mark of any single search's queue *)
}

val stats : 's t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** The two binary decision values, [Value.int 0] and [Value.int 1]. *)
val zero : Value.t

(** See {!zero}. *)
val one : Value.t
