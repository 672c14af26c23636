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

(* Breadth-first search for P-only executions from [cfg] deciding the
   values of [want], all answered by one run: a dequeued configuration
   deciding a wanted value not yet found becomes that value's witness, and
   the search stops once every wanted value has one.  BFS visits every
   configuration at its shortest P-only distance, so together with the
   visited table the search is *complete* for executions of length <=
   horizon, and each witness is one of minimal length.  The dequeue order
   does not depend on [want], so each witness is the one a search for its
   value alone would find, and the joint run is exactly the longest of
   those searches.  Negative answers still only mean "not within horizon".
   Returns the witnesses in the order of [want].  The search's work is
   folded into [t]'s counters even when the budget trips it; an aborted
   search then re-raises and nothing it found is memoized. *)
let search t cfg ps want =
  (* explicit enter/close (not with_span): this is the engine's hottest
     entry point and the closure must not allocate while disarmed *)
  let sp = Obs.enter ~cat:"valency" "valency.search" in
  (* value sets as masks: bit v stands for the decision value v *)
  let bit v = 1 lsl Value.to_int v in
  let target = List.fold_left (fun m v -> m lor bit v) 0 want in
  let want = Array.of_list want in
  let found = Array.make (Array.length want) None in
  let decided = ref 0 in
  let pk = Ckey.packer t.proto in
  let fr =
    Frontier.create ~key:(Ckey.pack pk) ~size:1024 ~loc:"valency.visited"
      ~max_depth:t.horizon
  in
  Frontier.add fr cfg (cfg, []);
  let stop =
    match
      Frontier.run fr
        ~visit:(fun (cfg, rev_sched) _ ->
          Budget.charge t.budget 1;
          for i = 0 to Array.length want - 1 do
            if Option.is_none found.(i) && Config.decides cfg want.(i) then begin
              found.(i) <- Some (List.rev rev_sched);
              decided := !decided lor bit want.(i)
            end
          done;
          if !decided = target then Frontier.Stop else Frontier.Expand)
        ~expand:(fun (cfg, rev_sched) ->
          Config.iter_successors t.proto cfg ps (fun pid coin cfg' ->
              if Frontier.offer fr cfg' then
                Frontier.push fr (cfg', { Execution.pid; coin } :: rev_sched)))
    with
    | () -> None
    | exception (Budget.Exhausted _ as e) -> Some e
  in
  let nodes = Frontier.explored fr and peak = Frontier.peak fr in
  Obs.set_int sp "target" target;
  Obs.set_int sp "nodes" nodes;
  Obs.set_int sp "peak_frontier" peak;
  Obs.set_int sp "decided" !decided;
  Obs.close sp;
  t.searches <- t.searches + 1;
  t.nodes_expanded <- t.nodes_expanded + nodes;
  if peak > t.peak_frontier then t.peak_frontier <- peak;
  Obs.Metrics.incr "valency.searches";
  Obs.Metrics.incr ~by:nodes "valency.nodes_expanded";
  Obs.Metrics.gauge_max "valency.peak_frontier" peak;
  match stop with Some e -> raise e | None -> Array.to_list found

let lookup t key =
  match Memo.find_opt t.memo key with
  | Some _ as r ->
    t.memo_hits <- t.memo_hits + 1;
    Obs.Metrics.incr "valency.memo_hits";
    r
  | None ->
    t.memo_misses <- t.memo_misses + 1;
    Obs.Metrics.incr "valency.memo_misses";
    None

(* [decide t cfg ps vs] answers "can P decide v from C?" for each value of
   [vs], in order: memoized answers come from the table, the rest from one
   joint search whose answers are then memoized. *)
let decide t cfg ps vs =
  let ck = Ckey.pack t.pk cfg and mask = Pset.to_mask ps in
  let key v = { Memo_key.ck; mask; v = Value.to_int v } in
  let answers = List.map (fun v -> (v, lookup t (key v))) vs in
  let todo = List.filter_map (fun (v, r) -> if Option.is_none r then Some v else None) answers in
  let fresh = if todo = [] then [] else List.combine todo (search t cfg ps todo) in
  List.iter (fun (v, w) -> Memo.replace t.memo (key v) w) fresh;
  List.map (fun (v, r) -> match r with Some w -> w | None -> List.assoc v fresh) answers

let can_decide t cfg ps v =
  match decide t cfg ps [ v ] with [ r ] -> r | _ -> assert false

type verdict =
  | Bivalent of Execution.event list * Execution.event list
  | Univalent of Value.t * Execution.event list
  | Blocked

let verdict_of = function
  | Some w0, Some w1 -> Bivalent (w0, w1)
  | Some w0, None -> Univalent (zero, w0)
  | None, Some w1 -> Univalent (one, w1)
  | None, None -> Blocked

let classify t cfg ps =
  match decide t cfg ps [ zero; one ] with
  | [ r0; r1 ] -> verdict_of (r0, r1)
  | _ -> assert false

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
