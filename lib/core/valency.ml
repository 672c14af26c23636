open Ts_model
module Obs = Ts_obs.Obs

exception Horizon_exceeded of string

type stats = {
  searches : int;
  nodes_expanded : int;
  memo_hits : int;
  memo_misses : int;
  peak_frontier : int;
}

(* Memo keys: packed configuration + participant mask + target value. *)
module Memo_key = struct
  type t = {
    ck : Ckey.t;
    mask : int;
    v : int;
  }

  let equal a b = a.mask = b.mask && a.v = b.v && Ckey.equal a.ck b.ck
  let hash { ck; mask; v } = (Ckey.hash ck + (mask * 0x9e3779b9) + (v * 0x85ebca6b)) land max_int
end

module Memo = Hashtbl.Make (Memo_key)

type 's t = {
  proto : 's Protocol.t;
  horizon : int;
  budget : Budget.t;
  memo : Execution.event list option Memo.t;
  pk : 's Ckey.packer;  (* packer for memo keys *)
  mutable searches : int;
  mutable nodes_expanded : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable peak_frontier : int;
}

let create ?(budget = Budget.unlimited) proto ~horizon =
  {
    proto;
    horizon;
    budget;
    memo = Memo.create 4096;
    pk = Ckey.packer proto;
    searches = 0;
    nodes_expanded = 0;
    memo_hits = 0;
    memo_misses = 0;
    peak_frontier = 0;
  }

let protocol t = t.proto
let horizon t = t.horizon
let budget t = t.budget
let searches t = t.searches

let stats t =
  {
    searches = t.searches;
    nodes_expanded = t.nodes_expanded;
    memo_hits = t.memo_hits;
    memo_misses = t.memo_misses;
    peak_frontier = t.peak_frontier;
  }

let zero = Value.int 0
let one = Value.int 1

(* Breadth-first search for a P-only execution from [cfg] deciding [v].
   BFS visits every configuration at its shortest P-only distance, so
   together with the visited table the search is *complete* for executions
   of length <= horizon, and the returned witness is one of minimal
   length.  Negative answers still only mean "not within horizon".  The
   search's work is folded into [t]'s counters even when the budget trips
   it; an aborted search then re-raises and is never memoized. *)
let search t cfg ps v =
  (* explicit enter/close (not with_span): this is the engine's hottest
     entry point and the closure must not allocate while disarmed *)
  let sp = Obs.enter ~cat:"valency" "valency.search" in
  let pk = Ckey.packer t.proto in
  let fr =
    Frontier.create ~key:(Ckey.pack pk) ~size:1024 ~loc:"valency.visited"
      ~max_depth:t.horizon
  in
  Frontier.add fr cfg (cfg, []);
  let result = ref None in
  let stop =
    match
      Frontier.run fr
        ~visit:(fun (cfg, rev_sched) _ ->
          Budget.charge t.budget 1;
          if Config.decides cfg v then begin
            result := Some (List.rev rev_sched);
            Frontier.Stop
          end
          else Frontier.Expand)
        ~expand:(fun (cfg, rev_sched) ->
          Config.iter_successors t.proto cfg ps (fun pid coin cfg' ->
              if Frontier.offer fr cfg' then
                Frontier.push fr (cfg', { Execution.pid; coin } :: rev_sched)))
    with
    | () -> None
    | exception (Budget.Exhausted _ as e) -> Some e
  in
  let nodes = Frontier.explored fr and peak = Frontier.peak fr in
  Obs.set_int sp "target" (Value.to_int v);
  Obs.set_int sp "nodes" nodes;
  Obs.set_int sp "peak_frontier" peak;
  Obs.set_bool sp "decided" (!result <> None);
  Obs.close sp;
  t.searches <- t.searches + 1;
  t.nodes_expanded <- t.nodes_expanded + nodes;
  if peak > t.peak_frontier then t.peak_frontier <- peak;
  Obs.Metrics.incr "valency.searches";
  Obs.Metrics.incr ~by:nodes "valency.nodes_expanded";
  Obs.Metrics.gauge_max "valency.peak_frontier" peak;
  match stop with Some e -> raise e | None -> !result

let can_decide t cfg ps v =
  let key =
    { Memo_key.ck = Ckey.pack t.pk cfg; mask = Pset.to_mask ps; v = Value.to_int v }
  in
  match Memo.find_opt t.memo key with
  | Some r ->
    t.memo_hits <- t.memo_hits + 1;
    Obs.Metrics.incr "valency.memo_hits";
    r
  | None ->
    t.memo_misses <- t.memo_misses + 1;
    Obs.Metrics.incr "valency.memo_misses";
    let r = search t cfg ps v in
    Memo.replace t.memo key r;
    r

type verdict =
  | Bivalent of Execution.event list * Execution.event list
  | Univalent of Value.t * Execution.event list
  | Blocked

let verdict_of = function
  | Some w0, Some w1 -> Bivalent (w0, w1)
  | Some w0, None -> Univalent (zero, w0)
  | None, Some w1 -> Univalent (one, w1)
  | None, None -> Blocked

let classify t cfg ps = verdict_of (can_decide t cfg ps zero, can_decide t cfg ps one)

let is_bivalent t cfg ps =
  match classify t cfg ps with
  | Bivalent _ -> true
  | Univalent _ | Blocked -> false

let univalent_value t cfg ps =
  match classify t cfg ps with
  | Univalent (v, _) -> Some v
  | Bivalent _ | Blocked -> None

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "%d searches over %d nodes, memo %d/%d hit/miss, frontier peak %d"
    s.searches s.nodes_expanded s.memo_hits s.memo_misses s.peak_frontier
