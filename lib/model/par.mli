(** Minimal domain fan-out for the search engine.

    Same [Domain.spawn]/[join] pattern as [Ts_runtime.Atomic_run], but
    dependency-free so the checker and core layers can use it.  Workers
    share no mutable state; results are reassembled in input order, so a
    parallel run is observationally identical to a serial one.  Workers
    catch everything and every spawned domain is joined before control
    returns, so a raising item never leaks a domain. *)

(** The runtime's recommended domain count for this machine. *)
val available_domains : unit -> int

(** [map_list ~domains f xs] is [List.map f xs], strided over a pool of
    [domains] domains (the calling domain is one of them).  If several
    applications raise, the exception of the earliest item is re-raised —
    exactly what a serial left-to-right map would have surfaced. *)
val map_list : domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_list_outcomes ~domains f xs] is the fault-contained variant: each
    item maps to [Ok (f x)], or [Error exn] if that application raised.
    One crashing worker item never discards a completed sibling's result —
    this is what lets a search fan-out degrade per-item instead of
    wholesale. *)
val map_list_outcomes : domains:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Testing-only access to internal invariant guards. *)
module Internal : sig
  (** [strip_slot i slot] unwraps the reassembled outcome of item [i].
      @raise Invalid_argument naming item [i] if the slot is empty — the
      "worker slot went missing" guard on stride reassembly, impossible
      through the public API but kept loud rather than as a bare
      assertion. *)
  val strip_slot : int -> 'a option -> 'a
end
