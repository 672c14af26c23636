(** Wire vocabulary of the coordinator↔worker protocol.

    Cluster messages ride the existing [ts_service] transport: one
    {!Ts_service.Frame} per message, a JSON object payload whose ["op"]
    starts with ["cluster-"], answered with the standard service
    envelope ([{"id":..,"ok":true,"result":...}] or the typed error
    document).  docs/CLUSTER.md is the operator-facing specification;
    this module is its single OCaml implementation, shared by the
    worker (decode requests, encode replies) and the coordinator
    (encode requests, decode replies).

    {b Keys, not configurations.}  A configuration stays on the worker
    that generated it.  What crosses the wire per frontier candidate is
    its owner shard, the event that made it and — only when another
    worker owns that shard — its packed {!Ts_model.Ckey} bytes, plus a
    schedule of event codes for the owner to replay the configuration
    from if the key is new to it.  Nothing protocol-state-specific ever
    crosses the wire, so the protocol works for every registry entry.

    {b Blocks.}  The per-candidate parts of a round message travel as one
    compact string per message: unsigned LEB128 varints (plus raw key
    bytes) in standard padded base64, inside the JSON envelope. *)

module Json := Ts_analysis.Json

(** {1 Events}

    An event travels as one small integer: [3 * pid], plus 1 for a coin
    flip resolved heads, 2 for tails. *)

val event_code : Ts_model.Execution.event -> int
val event_of_code : int -> Ts_model.Execution.event

(** {1 Round blocks}

    Each decoder returns [Error] on malformed input (bad base64, a
    truncated or overlong varint, trailing bytes); none raises. *)

(** An ingest candidate, as the coordinator routes it to the worker that
    owns its shard. *)
type cand =
  | Local of int
      (** an id in the owner's own successor table: the owner generated
          this configuration in the round's expand *)
  | Remote of string * Ts_model.Execution.event list
      (** raw key bytes generated on another worker, with the schedule
          reaching the configuration from the initial one *)

val cands_to_block : cand list -> string
val cands_of_block : string -> (cand list, string) result

(** The owner's answer for one ingested candidate, in request order. *)
type verdict =
  | Dup  (** already in the shard's visited table *)
  | Fresh of {
      stop : int;
          (** stopping marks in [0, 3]: bit 0 a property violation
              ([check]/[resilient]); bit v a decided wanted value v
              ([valency]) *)
      probes : int;  (** solo/group probe misses its examine ran *)
    }

val verdicts_to_block : verdict list -> string
val verdicts_of_block : string -> (verdict list, string) result

(** Lists of worker-local item indices (delta-coded, so an increasing
    run costs one byte per index). *)
val ints_to_block : int list -> string

val ints_of_block : string -> (int list, string) result

(** One successor as its generating worker reports it. *)
type succ = {
  event : Ts_model.Execution.event;
  shard : int;  (** owner shard, in [0, shards) *)
  key : string option;  (** raw key bytes, present iff another worker owns [shard] *)
}

(** One successor list per expanded item, in request order. *)
val succs_to_block : shards:int -> succ list list -> string

val succs_of_block : shards:int -> string -> (succ list list, string) result

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
    successful envelope, or the [(code, message)] of a typed failure
    one. *)
val result_of_envelope : Json.t -> (Json.t, string * string) result

(** Mandatory members of every cluster request. *)
val get_str : Json.t -> string -> (string, string) result

val get_int : Json.t -> string -> (int, string) result
val get_int_opt : Json.t -> string -> default:int -> (int, string) result
val get_bool_opt : Json.t -> string -> default:bool -> (bool, string) result
val get_list : Json.t -> string -> (Json.t list, string) result
