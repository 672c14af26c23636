open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Valency = Ts_core.Valency
module Response = Ts_service.Response
module Client = Ts_service.Client

(* --- peers ---------------------------------------------------------------- *)

type peer = {
  wid : int;
  name : string;
  call : Json.t -> (Json.t, string) result;
  mutable alive : bool;
}

(* An ingest chunk does real engine work (deep updates, solo probes), so
   a worker can legitimately hold a frame for tens of seconds on a big
   frontier; the default RPC timeout must bound death detection, not the
   engine.  The seq protocol makes the retries safe either way. *)
let default_policy = { Client.default_policy with Client.timeout_ms = 60_000 }

let tcp_peer ?policy ~wid ~host ~port () =
  let policy = Option.value policy ~default:default_policy in
  let c = Client.make ~host ~policy ~port () in
  {
    wid;
    name = Printf.sprintf "%s:%d" host port;
    call = (fun doc -> Client.call c doc);
    alive = true;
  }

let local_peer ~wid w =
  {
    wid;
    name = Printf.sprintf "local-%d" wid;
    call =
      (fun doc ->
        match Json.of_string (Worker.handle w (Json.to_string doc)) with
        | Ok d -> Ok d
        | Error m -> Error ("parse: " ^ m));
    alive = true;
  }

(* --- parameters ----------------------------------------------------------- *)

type op =
  | Check
  | Resilient
  | Valency

let op_str = function
  | Check -> "check"
  | Resilient -> "resilient"
  | Valency -> "valency"

type params = {
  op : op;
  protocol : string;
  n : int;
  k : int;
  t_faults : int;
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  check_solo : bool;
  horizon : int option;
  shards : int;
  deadline : float option;
  chunk : int;
}

let default_params =
  {
    op = Check;
    protocol = "racing";
    n = 3;
    k = 1;
    t_faults = 1;
    max_configs = 60_000;
    max_depth = 40;
    solo_budget = 300;
    check_solo = true;
    horizon = None;
    shards = 8;
    deadline = None;
    chunk = 256;
  }

(* --- outcomes ------------------------------------------------------------- *)

type failure = {
  reason : [ `Dead_workers | `Deadline | `Refused of string * string ];
  dead : (int * string) list;
  lost_shards : int list;
  reassignment : (int * int) list;
  completed_rounds : int;
  vector : int option;
}

type outcome =
  | Complete of {
      result : Json.t;
      telemetry : Json.t;
    }
  | Failed of failure

exception Dead_peers
exception Deadline_hit
exception Refused of string * string

(* --- coordinator state ---------------------------------------------------- *)

type state = {
  peers : peer array;
  params : params;
  assign : int array;  (* shard -> position in [peers], round-robin *)
  seqs : int array;  (* per peer, reset at each search's init *)
  mutable round : int;
  mutable vector : int option;
  mutable dead : (int * string) list;
  deadline_at : float option;
  tele : (string, int) Hashtbl.t array;
}

let check_deadline st =
  match st.deadline_at with
  | Some t when Unix.gettimeofday () > t -> raise Deadline_hit
  | _ -> ()

let next_seq st w =
  st.seqs.(w) <- st.seqs.(w) + 1;
  st.seqs.(w)

(* A worker reply that violates the wire protocol is indistinguishable
   from a corrupted worker: retire it rather than risk a wrong answer. *)
let wire_fail st pos msg =
  st.peers.(pos).alive <- false;
  st.dead <- st.dead @ [ (st.peers.(pos).wid, "protocol: " ^ msg) ];
  raise Dead_peers

(* --- phases --------------------------------------------------------------- *)

(* Why one worker's exchange ended early.  A transport error means the
   worker is gone.  A typed error envelope is the worker answering: the
   request itself was refused (an engine error, a bad request), and
   resending it anywhere gets the same answer — except the two codes
   that say the worker lost this search's state, which only a restart
   from scratch can repair. *)
type cut =
  | Lost of string
  | Refusal of string * string

let send_seq st pos docs =
  let peer = st.peers.(pos) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
      match peer.call d with
      | Error msg -> Error (Lost msg)
      | Ok env -> (
        match Msg.result_of_envelope env with
        | Error (("unknown-search" | "stale-seq") as code, msg) ->
          Error (Lost (code ^ ": " ^ msg))
        | Error (code, msg) -> Error (Refusal (code, msg))
        | Ok r -> go (r :: acc) rest))
  in
  go [] docs

(* One job per worker, fanned out on domains; a phase is a barrier.  Each
   worker's documents are sent strictly sequentially (the seq protocol
   depends on it); workers run their jobs concurrently with each other. *)
let phase st jobs =
  check_deadline st;
  let jobs = List.filter (fun (_, docs) -> docs <> []) jobs in
  let results =
    match jobs with
    | [] -> []
    | [ (pos, docs) ] -> [ (pos, send_seq st pos docs) ]
    | _ ->
      let doms =
        List.map
          (fun (pos, docs) ->
            ( pos,
              Domain.spawn (fun () ->
                  try send_seq st pos docs
                  with exn -> Error (Lost ("exn: " ^ Printexc.to_string exn))) ))
          jobs
      in
      List.map (fun (pos, d) -> (pos, Domain.join d)) doms
  in
  let deads =
    List.filter_map
      (fun (pos, r) -> match r with Error (Lost m) -> Some (pos, m) | _ -> None)
      results
  in
  if deads <> [] then begin
    List.iter
      (fun (pos, msg) ->
        st.peers.(pos).alive <- false;
        st.dead <- st.dead @ [ (st.peers.(pos).wid, msg) ])
      deads;
    raise Dead_peers
  end;
  List.map
    (fun (pos, r) ->
      match r with
      | Ok rs -> (pos, rs)
      | Error (Refusal (code, msg)) -> raise (Refused (code, msg))
      | Error (Lost _) -> assert false)
    results

let chunk_list n l =
  let rec go start acc cur k = function
    | [] -> List.rev (if cur = [] then acc else (start, List.rev cur) :: acc)
    | x :: rest ->
      if k = n then go (start + n) ((start, List.rev cur) :: acc) [ x ] 1 rest
      else go start acc (x :: cur) (k + 1) rest
  in
  if l = [] then [] else go 0 [] [] 0 l

let block_of st w r field =
  match Option.bind (Json.member field r) Json.to_str_opt with
  | Some b -> b
  | None -> wire_fail st w (Printf.sprintf "reply missing %s" field)

let decoded st w = function Ok v -> v | Error m -> wire_fail st w m

(* --- one search's frontier bookkeeping -------------------------------------

   Every frontier item is known by its 1-based global serial dequeue index
   [gidx]; the coordinator keeps only its parent's index and the event
   code that made it, so any item's schedule is a walk up the parents.
   Configurations never leave the workers. *)

type tree = {
  mutable parent : int array;
  mutable event : int array;
  mutable kids : int array;  (* fresh children recorded per item *)
  mutable size : int;  (* items recorded: gidx 1 .. size *)
}

let tree_create () =
  { parent = Array.make 1024 0; event = Array.make 1024 0;
    kids = Array.make 1024 0; size = 0 }

let tree_add t ~parent ~event =
  let g = t.size + 1 in
  if g >= Array.length t.parent then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.parent <- grow t.parent;
    t.event <- grow t.event;
    t.kids <- grow t.kids
  end;
  t.parent.(g) <- parent;
  t.event.(g) <- event;
  t.kids.(parent) <- t.kids.(parent) + 1;
  t.size <- g

(* the schedule reaching item [g] from the root (gidx 1) *)
let schedule t g =
  let rec go g acc =
    if g <= 1 then acc else go t.parent.(g) (Msg.event_of_code t.event.(g) :: acc)
  in
  go g []

(* --- the round messages --------------------------------------------------- *)

(* a routed candidate: owner shard, where it was made (worker position and
   id in that worker's successor table), its key bytes when the owner is
   another worker, and its parent's gidx and event code *)
type cand = {
  shard : int;
  src : int;
  sid : int;
  key : string option;
  parent : int;
  ev : int;
}

(* a deduplicated frontier member, in serial dequeue order *)
type item = {
  gidx : int;  (* 1-based global serial dequeue index *)
  wpos : int;  (* peer holding it *)
  widx : int;  (* its index among the worker's fresh items of the round *)
  probes : int;
  stop : int;  (* Msg.verdict stopping marks *)
  vio : Json.t option;
}

type ingested = {
  items : item array;
  dup_hits : int;
}

let ingest st tree ~search ~examine cands =
  let nw = Array.length st.peers in
  let per_w = Array.make nw [] in
  let counts = Array.make nw 0 in
  let wslot = Array.make (Array.length cands) (0, 0) in
  (* siblings share their parent's schedule: rebuild it once per parent *)
  let last = ref (-1, []) in
  let sched_of parent ev =
    if fst !last <> parent then last := (parent, schedule tree parent);
    snd !last @ [ Msg.event_of_code ev ]
  in
  Array.iteri
    (fun gpos c ->
      let w = st.assign.(c.shard) in
      let i = counts.(w) in
      counts.(w) <- i + 1;
      let wire =
        if w = c.src then Msg.Local c.sid
        else
          match c.key with
          | Some k -> Msg.Remote (k, sched_of c.parent c.ev)
          | None -> wire_fail st c.src "remote successor without a key"
      in
      per_w.(w) <- wire :: per_w.(w);
      wslot.(gpos) <- (w, i))
    cands;
  let jobs =
    List.init nw (fun w ->
        let docs =
          List.map
            (fun (off, chunk) ->
              Json.Obj
                [
                  ("op", Json.Str "cluster-ingest");
                  ("search", Json.Str search);
                  ("seq", Json.Int (next_seq st w));
                  ("reset", Json.Bool (off = 0));
                  ("examine", Json.Bool examine);
                  ("cands", Json.Str (Msg.cands_to_block chunk));
                ])
            (chunk_list st.params.chunk (List.rev per_w.(w)))
        in
        (w, docs))
  in
  let replies = phase st jobs in
  let verdicts = Array.make nw [||] in
  let vios = Array.init nw (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun (w, rs) ->
      verdicts.(w) <-
        Array.concat
          (List.map
             (fun r -> Array.of_list (decoded st w (Msg.verdicts_of_block (block_of st w r "flags"))))
             rs);
      List.iter
        (fun r ->
          match Json.member "vios" r with
          | Some (Json.List vs) ->
            List.iter
              (fun v ->
                match (Option.bind (Json.member "i" v) Json.to_int_opt, Json.member "v" v) with
                | Some i, Some payload -> Hashtbl.replace vios.(w) i payload
                | _ -> wire_fail st w "malformed violation entry")
              vs
          | _ -> wire_fail st w "ingest reply missing vios")
        rs)
    replies;
  Array.iteri
    (fun w v ->
      if Array.length v <> counts.(w) then wire_fail st w "verdict count mismatch")
    verdicts;
  (* the worker numbers its fresh items in its own stream's order *)
  let fresh = Array.make nw 0 in
  let items = ref [] in
  let dups = ref 0 in
  Array.iteri
    (fun gpos c ->
      let w, i = wslot.(gpos) in
      match verdicts.(w).(i) with
      | Msg.Dup -> incr dups
      | Msg.Fresh { stop; probes } ->
        tree_add tree ~parent:c.parent ~event:c.ev;
        let widx = fresh.(w) in
        fresh.(w) <- widx + 1;
        items :=
          { gidx = tree.size; wpos = w; widx; probes; stop;
            vio = Hashtbl.find_opt vios.(w) widx }
          :: !items)
    cands;
  { items = Array.of_list (List.rev !items); dup_hits = !dups }

let expand st ~search items =
  let nw = Array.length st.peers in
  let per_w = Array.make nw [] in
  Array.iter (fun it -> per_w.(it.wpos) <- it.widx :: per_w.(it.wpos)) items;
  let jobs =
    List.init nw (fun w ->
        let docs =
          List.map
            (fun (off, chunk) ->
              Json.Obj
                [
                  ("op", Json.Str "cluster-expand");
                  ("search", Json.Str search);
                  ("seq", Json.Int (next_seq st w));
                  ("reset", Json.Bool (off = 0));
                  ("items", Json.Str (Msg.ints_to_block chunk));
                ])
            (chunk_list st.params.chunk (List.rev per_w.(w)))
        in
        (w, docs))
  in
  let replies = phase st jobs in
  (* per worker, one successor list per requested item in request order;
     successor ids count up from 0 across the worker's replies, exactly
     as the worker numbered them *)
  let succs = Array.make nw [||] in
  List.iter
    (fun (w, rs) ->
      succs.(w) <-
        Array.concat
          (List.map
             (fun r ->
               Array.of_list
                 (decoded st w
                    (Msg.succs_of_block ~shards:st.params.shards (block_of st w r "succs"))))
             rs))
    replies;
  let next = Array.make nw 0 in
  let sid = Array.make nw 0 in
  let out = ref [] in
  Array.iter
    (fun it ->
      let w = it.wpos in
      if next.(w) >= Array.length succs.(w) then
        wire_fail st w "expand reply missing item";
      let cs = succs.(w).(next.(w)) in
      next.(w) <- next.(w) + 1;
      List.iter
        (fun { Msg.event; shard; key } ->
          out :=
            { shard; src = w; sid = sid.(w); key; parent = it.gidx;
              ev = Msg.event_code event }
            :: !out;
          sid.(w) <- sid.(w) + 1)
        cs)
    items;
  Array.iteri
    (fun w n -> if n <> Array.length succs.(w) then wire_fail st w "expand reply has extra items")
    next;
  Array.of_list (List.rev !out)

(* --- one distributed BFS --------------------------------------------------

   Level-synchronous rounds over the workers, with the serial engine's
   counters reconstructed exactly on the coordinator:

   - the round-r candidate stream, walked in serial generation order,
     yields the serial dedup flag stream (same-key candidates route to
     the same shard in the same relative order), so table hits/misses
     and the new-item set are serial-identical;
   - new items inherit consecutive global dequeue indices [gidx] in
     (level, lex-schedule) order — the serial queue's dequeue order;
   - the serial queue length after expanding the item with index [g] is
     [cum_ins - g] where [cum_ins] counts insertions so far, so the
     queue's high-water mark is the max of that expression over expanded
     items (non-expanded dequeues only ever shrink the queue and cannot
     set a new peak);
   - the search stops at the first item W (in that order) after which
     every wanted stopping mark has been seen — a violation for the
     examiners, each wanted decision value for a valency probe.  Items
     after W are never dequeued (their probes don't count), items before
     W were dequeued and expanded (their children's flags and the trunc
     check do count) — the drain pass reproduces exactly that. *)

type bfs_res = {
  witnesses : (int * Execution.event list) list;
      (* stopping mark -> schedule of the first item carrying it *)
  vio : Json.t option;  (* the stopping item's violation payload *)
  explored : int;
  insertions : int;
  hits : int;
  probes : int;
  deepest : int;
  truncated : bool;
  peak : int;
}

let bfs st ~search ~inputs ~mode_fields ~want ~depth_limit ~cfg_limit =
  let nw = Array.length st.peers in
  Array.fill st.seqs 0 nw 0;
  st.round <- 0;
  let init_doc w =
    Json.Obj
      ([
         ("op", Json.Str "cluster-init");
         ("search", Json.Str search);
         ("protocol", Json.Str st.params.protocol);
         ("n", Json.Int st.params.n);
         ("shards", Json.Int st.params.shards);
         ("owners", Json.List (Array.to_list (Array.map (fun w -> Json.Int w) st.assign)));
         ("self", Json.Int w);
         ("inputs", Json.List (Array.to_list (Array.map Msg.value_to_json inputs)));
       ]
      @ mode_fields)
  in
  let replies = phase st (List.init nw (fun w -> (w, [ init_doc w ]))) in
  let root_shard =
    match replies with
    | (w, r :: _) :: _ -> (
      match Option.bind (Json.member "root_shard" r) Json.to_int_opt with
      | Some s when s >= 0 && s < st.params.shards -> s
      | _ -> wire_fail st w "init reply missing root_shard")
    | _ -> invalid_arg "cluster: no workers"
  in
  let tree = tree_create () in
  (* serial-counter accumulator; the root is pre-seeded exactly as the
     serial search seeds it (one insertion, peak 1) *)
  let ins = ref 1 in
  let hits = ref 0 in
  let probes = ref 0 in
  let deepest = ref 0 in
  let trunc = ref false in
  let cum = ref 1 in
  let peak = ref 1 in
  let seen = ref 0 in
  let witnesses = ref [] in
  (* each item is expanded at most once, so its recorded fresh children
     are exactly the insertions its expansion made *)
  let account parents =
    Array.iter
      (fun (it : item) ->
        cum := !cum + tree.kids.(it.gidx);
        if !cum - it.gidx > !peak then peak := !cum - it.gidx)
      parents
  in
  let is_allowed round it = round < depth_limit && it.gidx < cfg_limit in
  let result ~explored ~vio =
    { witnesses = List.rev !witnesses; vio; explored; insertions = !ins;
      hits = !hits; probes = !probes; deepest = !deepest; truncated = !trunc;
      peak = !peak }
  in
  let rec go round cands parents =
    let ing = ingest st tree ~search ~examine:true cands in
    (* round 0 ingests the root, whose insertion is pre-seeded *)
    if round > 0 then begin
      hits := !hits + ing.dup_hits;
      ins := !ins + Array.length ing.items;
      account parents
    end;
    let items = ing.items in
    (* the first item of each wanted mark is its witness; the search
       stops at the item that completes the set *)
    let stop = ref (-1) in
    Array.iteri
      (fun j (it : item) ->
        let fresh = it.stop land want land lnot !seen in
        if !stop < 0 && fresh <> 0 then begin
          for b = 0 to 1 do
            if fresh land (1 lsl b) <> 0 then
              witnesses := (1 lsl b, schedule tree it.gidx) :: !witnesses
          done;
          seen := !seen lor fresh;
          if !seen = want then stop := j
        end)
      items;
    st.round <- round;
    if !stop >= 0 then begin
      let j0 = !stop in
      let w = items.(j0) in
      for k = 0 to j0 do
        probes := !probes + items.(k).probes
      done;
      if round > !deepest then deepest := round;
      if j0 > 0 && (round >= depth_limit || w.gidx - 1 >= cfg_limit) then
        trunc := true;
      (* drain: the pre-W items of this round were expanded serially
         before W was dequeued — replay their children's dedup flags *)
      let pre_allowed =
        Array.of_list
          (List.filter (is_allowed round) (Array.to_list (Array.sub items 0 j0)))
      in
      if Array.length pre_allowed > 0 then begin
        let dr = ingest st tree ~search ~examine:false (expand st ~search pre_allowed) in
        hits := !hits + dr.dup_hits;
        ins := !ins + Array.length dr.items;
        account pre_allowed
      end;
      result ~explored:w.gidx ~vio:w.vio
    end
    else begin
      Array.iter (fun (it : item) -> probes := !probes + it.probes) items;
      if Array.length items > 0 && round > !deepest then deepest := round;
      let allowed =
        Array.of_list (List.filter (is_allowed round) (Array.to_list items))
      in
      if Array.length allowed < Array.length items then trunc := true;
      if Array.length allowed = 0 then result ~explored:!ins ~vio:None
      else begin
        let next = expand st ~search allowed in
        if Array.length next = 0 then result ~explored:!ins ~vio:None
        else go (round + 1) next allowed
      end
    end
  in
  (* the root is id 0 in every worker's successor table (init puts it
     there), so its owner ingests it as a local ref *)
  let root =
    { shard = root_shard; src = st.assign.(root_shard); sid = 0; key = None;
      parent = 0; ev = 0 }
  in
  let res = go 0 [| root |] [||] in
  (* free the search on every worker, folding its telemetry *)
  let fdoc =
    Json.Obj [ ("op", Json.Str "cluster-finish"); ("search", Json.Str search) ]
  in
  let freplies = phase st (List.init nw (fun w -> (w, [ fdoc ]))) in
  List.iter
    (fun (w, rs) ->
      List.iter
        (fun r ->
          match Json.member "stats" r with
          | Some (Json.Obj kvs) ->
            List.iter
              (fun (k, v) ->
                match Json.to_int_opt v with
                | Some i ->
                  Hashtbl.replace st.tele.(w) k
                    (i + Option.value ~default:0 (Hashtbl.find_opt st.tele.(w) k))
                | None -> ())
              kvs
          | _ -> ())
        rs)
    freplies;
  res

(* --- per-op drivers ------------------------------------------------------- *)

let explore_driver st =
  let p = st.params in
  let mode_fields =
    match p.op with
    | Check ->
      [
        ("mode", Json.Str "check");
        ("k", Json.Int p.k);
        ("solo_budget", Json.Int p.solo_budget);
        ("check_solo", Json.Bool p.check_solo);
      ]
    | Resilient ->
      [
        ("mode", Json.Str "resilient");
        ("t", Json.Int p.t_faults);
        ("solo_budget", Json.Int p.solo_budget);
      ]
    | Valency -> assert false
  in
  (* vectors run sequentially, stopping at the first violating one, and
     their stats fold exactly as the serial checker folds them *)
  let rec go i acc = function
    | [] -> { Explore.verdict = Ok (); stats = acc; stopped = None; worker_errors = [] }
    | inputs :: rest -> (
      st.vector <- Some i;
      let search = Printf.sprintf "%s-v%d" (op_str p.op) i in
      let res =
        bfs st ~search ~inputs ~mode_fields ~want:1 ~depth_limit:p.max_depth
          ~cfg_limit:p.max_configs
      in
      let stats =
        {
          Explore.configs_explored = res.explored;
          truncated = res.truncated;
          deepest = res.deepest;
          table_hits = res.hits;
          table_misses = res.insertions;
          peak_frontier = res.peak;
          solo_cache_hits = 0;
          solo_cache_misses = res.probes;
        }
      in
      let acc = Explore.merge_stats acc stats in
      match res.witnesses with
      | [] -> go (i + 1) acc rest
      | (_, schedule) :: _ ->
        let vio =
          match res.vio with
          | None -> invalid_arg "cluster: examiner stopped without a violation"
          | Some pl -> (
            match Msg.violation_of_payload pl ~inputs ~schedule with
            | Ok v -> v
            | Error m -> invalid_arg ("cluster: " ^ m))
        in
        { Explore.verdict = Error vio; stats = acc; stopped = None;
          worker_errors = [] })
  in
  let result = go 0 Explore.empty_stats (Explore.binary_inputs p.n) in
  let replay =
    match (p.op, result.Explore.verdict) with
    | Resilient, Error v ->
      let (Protocol.Packed proto) =
        match Ts_protocols.Catalog.find p.protocol ~n:p.n with
        | Ok pk -> pk
        | Error m -> invalid_arg m
      in
      Some (Explore.replay proto v)
    | _ -> None
  in
  Response.explore_to_json ?replay result

(* Like the serial oracle's classify, one joint BFS answers both decision
   values: each value's witness is the first item deciding it, and the
   search stops once both are found. *)
let valency_driver st =
  let p = st.params in
  let horizon = match p.horizon with Some h -> h | None -> 10 * p.n in
  let inputs = Array.init p.n (fun q -> Value.int (if q = 1 then 1 else 0)) in
  st.vector <- Some 0;
  let res =
    bfs st ~search:"valency" ~inputs
      ~mode_fields:
        [
          ("mode", Json.Str "valency");
          ("values", Json.Int 3);
          ("ps_mask", Json.Int ((1 lsl p.n) - 1));
        ]
      ~want:3 ~depth_limit:horizon ~cfg_limit:max_int
  in
  let verdict =
    match (List.assoc_opt 1 res.witnesses, List.assoc_opt 2 res.witnesses) with
    | Some w0, Some w1 -> Valency.Bivalent (w0, w1)
    | Some w0, None -> Valency.Univalent (Valency.zero, w0)
    | None, Some w1 -> Valency.Univalent (Valency.one, w1)
    | None, None -> Valency.Blocked
  in
  let stats =
    {
      Valency.searches = 1;
      nodes_expanded = res.explored;
      memo_hits = 0;
      memo_misses = 2;
      peak_frontier = res.peak;
    }
  in
  Response.valency_to_json ~inputs ~horizon verdict stats

(* --- failure assembly, telemetry, entry points ---------------------------- *)

let mk_failure st reason =
  let lost = ref [] in
  Array.iteri
    (fun s w -> if not st.peers.(w).alive then lost := s :: !lost)
    st.assign;
  let survivors = List.filter (fun pr -> pr.alive) (Array.to_list st.peers) in
  (* a refusal would be refused again anywhere: there is no retry to
     place shards for *)
  let reassignment =
    match (reason, survivors) with
    | `Refused _, _ | _, [] -> []
    | _ ->
      let arr = Array.of_list survivors in
      List.init st.params.shards (fun s -> (s, arr.(s mod Array.length arr).wid))
  in
  {
    reason;
    dead = st.dead;
    lost_shards = List.rev !lost;
    reassignment;
    completed_rounds = st.round;
    vector = st.vector;
  }

let failure_to_json f =
  let status, reason, refusal =
    match f.reason with
    | `Dead_workers -> ("partial", "dead-workers", [])
    | `Deadline -> ("partial", "deadline", [])
    | `Refused (code, msg) ->
      ("refused", "refused", [ ("code", Json.Str code); ("message", Json.Str msg) ])
  in
  Json.Obj
    ([ ("status", Json.Str status); ("reason", Json.Str reason) ]
    @ refusal
    @ [
      ( "dead",
        Json.List
          (List.map
             (fun (wid, msg) ->
               Json.Obj [ ("wid", Json.Int wid); ("error", Json.Str msg) ])
             f.dead) );
      ("lost_shards", Json.List (List.map (fun s -> Json.Int s) f.lost_shards));
      ( "reassignment",
        Json.List
          (List.map
             (fun (s, w) -> Json.List [ Json.Int s; Json.Int w ])
             f.reassignment) );
      ("completed_rounds", Json.Int f.completed_rounds);
      ( "vector",
        match f.vector with None -> Json.Null | Some v -> Json.Int v );
    ])

let telemetry_json st =
  let workers =
    Array.to_list
      (Array.mapi
         (fun w p ->
           let kvs = Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) st.tele.(w) [] in
           let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
           Json.Obj (("wid", Json.Int p.wid) :: ("name", Json.Str p.name) :: kvs))
         st.peers)
  in
  Json.Obj
    [
      ("shards", Json.Int st.params.shards);
      ("workers", Json.List workers);
    ]

let run_once params peers_arr =
  (match Ts_protocols.Catalog.find params.protocol ~n:params.n with
  | Ok _ -> ()
  | Error m -> invalid_arg m);
  if params.shards < 1 then invalid_arg "cluster: shards must be >= 1";
  if params.chunk < 1 then invalid_arg "cluster: chunk must be >= 1";
  (match params.op with
  | Resilient when params.t_faults < 0 || params.t_faults > params.n - 1 ->
    invalid_arg "cluster: t_faults out of range"
  | Check when params.k < 1 -> invalid_arg "cluster: k must be >= 1"
  | _ -> ());
  let nw = Array.length peers_arr in
  let st =
    {
      peers = peers_arr;
      params;
      assign = Shard.round_robin ~shards:params.shards ~workers:nw;
      seqs = Array.make nw 0;
      round = 0;
      vector = None;
      dead = [];
      deadline_at =
        Option.map (fun d -> Unix.gettimeofday () +. d) params.deadline;
      tele = Array.init nw (fun _ -> Hashtbl.create 8);
    }
  in
  try
    let result =
      match params.op with
      | Valency -> valency_driver st
      | Check | Resilient -> explore_driver st
    in
    Complete { result; telemetry = telemetry_json st }
  with
  | Dead_peers -> Failed (mk_failure st `Dead_workers)
  | Deadline_hit -> Failed (mk_failure st `Deadline)
  | Refused (code, msg) -> Failed (mk_failure st (`Refused (code, msg)))

let run ?(restarts = 0) params ~peers =
  if peers = [] then invalid_arg "cluster: at least one worker required";
  let rec attempt budget ps =
    match run_once params (Array.of_list ps) with
    | Complete _ as c -> c
    | Failed f ->
      let survivors = List.filter (fun p -> p.alive) ps in
      if budget > 0 && f.reason = `Dead_workers && survivors <> [] then
        attempt (budget - 1) survivors
      else Failed f
  in
  attempt restarts peers

(* The coordinator's store tier keys with the op string salted by a
   "cluster-" prefix: the same varint packing discipline as the serial
   daemon's cache key, but a disjoint namespace, so a shared store file
   can never feed cluster bytes into the serial byte-differential. *)
let store_key p =
  let buf = Buffer.create 64 in
  let str s =
    Value.add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  let int i = Value.add_varint buf i in
  str ("cluster-" ^ op_str p.op);
  str p.protocol;
  int p.n;
  int p.k;
  int p.t_faults;
  int p.max_configs;
  int p.max_depth;
  int p.solo_budget;
  int (if p.check_solo then 1 else 0);
  (match p.horizon with None -> int (-1) | Some h -> int h);
  Ckey.of_string (Buffer.contents buf)
