(** Wire vocabulary of the coordinator↔worker protocol.

    Cluster messages ride the existing [ts_service] transport: one
    {!Ts_service.Frame} per message, a JSON object payload whose ["op"]
    starts with ["cluster-"], answered with the standard service
    envelope ([{"id":..,"ok":true,"result":...}] or the typed error
    document).  docs/CLUSTER.md is the operator-facing specification;
    this module is its single OCaml implementation, shared by the
    worker (decode requests, encode replies) and the coordinator
    (encode requests, decode replies).

    {b Schedules on the wire.}  A configuration is transmitted as the
    schedule reaching it from the initial configuration — a
    comma-separated token string, one token per event: the pid digits,
    suffixed ['h']/['t'] for a coin flip resolved heads/tails (["" ] is
    the empty schedule, i.e. the initial configuration).  Workers
    rematerialize the configuration by replaying the schedule
    ({!Ts_model.Execution.apply}); nothing protocol-state-specific ever
    crosses the wire, so the protocol works for every registry entry. *)

module Json := Ts_analysis.Json

(** {1 Schedule codec} *)

val sched_to_string : Ts_model.Execution.event list -> string
val sched_of_string : string -> (Ts_model.Execution.event list, string) result

(** {1 Frontier candidates} *)

type cand = {
  shard : int;  (** owner shard of the configuration *)
  sched : string;  (** schedule token string reaching it *)
}

val cands_to_json : cand list -> Json.t
val cands_of_json : Json.t -> (cand list, string) result

(** {1 Value / violation payload codec}

    The worker reports a violation's kind and payload; the coordinator
    re-attaches inputs and schedule and rebuilds the
    {!Ts_checker.Explore.violation}.  Value encoding mirrors the
    response-document encoding (Bot↦null, pairs↦{fst,snd}). *)

val value_to_json : Ts_model.Value.t -> Json.t
val value_of_json : Json.t -> (Ts_model.Value.t, string) result

val violation_payload_to_json : Ts_checker.Explore.violation -> Json.t

(** [violation_of_payload payload ~inputs ~schedule] rebuilds the full
    violation from a wire payload plus the coordinator-known inputs and
    witness schedule. *)
val violation_of_payload :
  Json.t ->
  inputs:Ts_model.Value.t array ->
  schedule:Ts_model.Execution.event list ->
  (Ts_checker.Explore.violation, string) result

(** {1 Envelope helpers} *)

(** [ok_result ~id result] is the standard service success envelope with
    [result] spliced in. *)
val ok_result : id:int -> Json.t -> string

(** [result_of_envelope doc] extracts the ["result"] member of a
    successful envelope, or the error code/message of a failure one. *)
val result_of_envelope : Json.t -> (Json.t, string) result

(** Mandatory members of every cluster request. *)
val get_str : Json.t -> string -> (string, string) result

val get_int : Json.t -> string -> (int, string) result
val get_int_opt : Json.t -> string -> default:int -> (int, string) result
val get_bool_opt : Json.t -> string -> default:bool -> (bool, string) result
val get_list : Json.t -> string -> (Json.t list, string) result
