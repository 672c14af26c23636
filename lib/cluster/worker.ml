open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Obs = Ts_obs.Obs

(* What the per-configuration work of a search is: the property examine
   of check/resilient, or the reachability test of a valency probe for a
   mask of wanted decision values. *)
type 's skind =
  | Exam of 's Explore.examiner
  | Reach of int * Pset.t

(* A successor made by this worker's expand, kept for one round: the
   configuration never leaves the worker, only its key does (and only
   when another worker owns it). *)
type 's made = {
  cfg : 's Config.t;
  key : Ckey.t;
  shard : int;
}

type 's search = {
  proto : 's Protocol.t;
  pk : 's Ckey.packer;
  inputs : Value.t array;
  skind : 's skind;
  shards : int;
  owners : int array;  (* shard -> worker position *)
  self : int;  (* this worker's position *)
  (* shard -> visited key set; a table appears on the first lookup in
     its shard *)
  visited : unit Ckey.Tbl.t option array;
  (* the round's fresh items, numbered in ingest order, for the expand
     phase *)
  pending : (int, 's Config.t) Hashtbl.t;
  (* the round's successors, numbered in expand order, for the next
     ingest's local refs; at init, the root as id 0 *)
  made : (int, 's made) Hashtbl.t;
  mutable last_seq : int;
  mutable last_reply : string option;
  (* telemetry, reported at finish *)
  mutable ingested : int;
  mutable examined : int;
  mutable expanded : int;
  mutable inserted : int;
  mutable dup_hits : int;
  mutable replayed : int;
}

type packed = Search : 's search -> packed

type t = {
  searches : (string, packed) Hashtbl.t;
  verbose : bool;
}

let create ?(verbose = false) () = { searches = Hashtbl.create 8; verbose }

let log t fmt =
  if t.verbose then Printf.eprintf ("cluster worker: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let err ~id code msg = Json.to_string (Ts_service.Response.error ~id:(Some id) ~code msg)

exception Bad of string * string  (* code, message *)

let bad code msg = raise (Bad (code, msg))
let or_bad code = function Ok v -> v | Error msg -> bad code msg

let visited_for s shard =
  match s.visited.(shard) with
  | Some tbl -> tbl
  | None ->
    let tbl = Ckey.Tbl.create 1024 in
    s.visited.(shard) <- Some tbl;
    tbl

(* --- init ---------------------------------------------------------------- *)

let parse_inputs doc =
  let l = or_bad "bad-request" (Msg.get_list doc "inputs") in
  Array.of_list
    (List.map (fun v -> or_bad "bad-request" (Msg.value_of_json v)) l)

let handle_init t doc =
  let ( let$ ) r f = f (or_bad "bad-request" r) in
  let$ search_id = Msg.get_str doc "search" in
  let$ name = Msg.get_str doc "protocol" in
  let$ n = Msg.get_int doc "n" in
  let$ mode = Msg.get_str doc "mode" in
  let$ shards = Msg.get_int doc "shards" in
  let$ self = Msg.get_int doc "self" in
  let$ owners = Msg.get_list doc "owners" in
  if shards <= 0 then bad "bad-request" "shards must be positive";
  let owners =
    Array.of_list
      (List.map
         (fun o ->
           match Json.to_int_opt o with
           | Some w when w >= 0 -> w
           | _ -> bad "bad-request" "owners must be worker positions")
         owners)
  in
  if Array.length owners <> shards then
    bad "bad-request" "owners must name one worker per shard";
  let inputs = parse_inputs doc in
  let (Protocol.Packed proto) =
    match Ts_protocols.Catalog.find name ~n with
    | Ok p -> p
    | Error msg -> bad "unknown-protocol" msg
  in
  let skind : _ skind =
    match mode with
    | "check" ->
      let k = or_bad "bad-request" (Msg.get_int_opt doc "k" ~default:1) in
      let solo_budget = or_bad "bad-request" (Msg.get_int doc "solo_budget") in
      let check_solo =
        or_bad "bad-request" (Msg.get_bool_opt doc "check_solo" ~default:true)
      in
      Exam
        (Explore.consensus_examiner proto ~k ~inputs ~solo_budget ~check_solo
           ~guard:Ts_core.Budget.unlimited)
    | "resilient" ->
      let tf = or_bad "bad-request" (Msg.get_int doc "t") in
      let solo_budget = or_bad "bad-request" (Msg.get_int doc "solo_budget") in
      (match
         Explore.resilience_examiner proto ~t:tf ~inputs ~solo_budget
           ~guard:Ts_core.Budget.unlimited
       with
       | ex -> Exam ex
       | exception Invalid_argument msg -> bad "invalid-argument" msg)
    | "valency" ->
      let values = or_bad "bad-request" (Msg.get_int doc "values") in
      if values < 1 || values > 3 then
        bad "bad-request" "values must be a nonempty mask of {0, 1}";
      let mask = or_bad "bad-request" (Msg.get_int doc "ps_mask") in
      let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
      Reach (values, ps)
    | m -> bad "bad-request" (Printf.sprintf "unknown mode %S" m)
  in
  let pk = Ckey.packer proto in
  let root = Config.initial proto ~inputs in
  let key = Ckey.pack pk root in
  let root_shard = Shard.owner ~shards key in
  let root_made = { cfg = root; key; shard = root_shard } in
  let s =
    {
      proto; pk; inputs; skind; shards; owners; self;
      visited = Array.make shards None;
      pending = Hashtbl.create 256;
      made = Hashtbl.create 256;
      last_seq = 0;
      last_reply = None;
      ingested = 0; examined = 0; expanded = 0; inserted = 0; dup_hits = 0;
      replayed = 0;
    }
  in
  Hashtbl.replace s.made 0 root_made;
  (* re-init of a known id replaces it: init is the coordinator's first
     message per search, so a replacement only ever discards a state the
     same coordinator abandoned *)
  Hashtbl.replace t.searches search_id (Search s);
  log t "init %s: %s n=%d mode=%s shards=%d" search_id name n mode shards;
  Json.Obj [ ("ready", Json.Bool true); ("root_shard", Json.Int root_shard) ]

(* --- per-round messages -------------------------------------------------- *)

(* A remote candidate's configuration, replayed from its schedule; the
   key it arrived under must be the key the replay produces. *)
let replay s key events =
  match
    Execution.apply s.proto (Config.initial s.proto ~inputs:s.inputs) events
  with
  | exception _ -> bad "bad-request" "remote schedule does not replay"
  | cfg, _ ->
    if not (Ckey.equal (Ckey.pack s.pk cfg) key) then
      bad "bad-request" "remote key does not match its schedule";
    s.replayed <- s.replayed + 1;
    cfg

(* The stopping marks of a fresh configuration (Msg.verdict) and the
   probe misses its examine ran; a violation payload goes to [vio]. *)
let examine s cfg ~vio =
  s.examined <- s.examined + 1;
  match s.skind with
  | Exam ex -> (
    match Explore.examine ex cfg ~schedule:[] with
    | None, probes -> (0, probes)
    | Some v, probes ->
      vio (Msg.violation_payload_to_json v);
      (1, probes))
  | Reach (values, _) ->
    let marks = ref 0 in
    for v = 0 to 1 do
      if values land (1 lsl v) <> 0 && Config.decides cfg (Value.int v) then
        marks := !marks lor (1 lsl v)
    done;
    (!marks, 0)

let handle_ingest (Search s) doc =
  let reset = or_bad "bad-request" (Msg.get_bool_opt doc "reset" ~default:false) in
  let do_examine =
    or_bad "bad-request" (Msg.get_bool_opt doc "examine" ~default:true)
  in
  let cands =
    or_bad "bad-request"
      (Msg.cands_of_block (or_bad "bad-request" (Msg.get_str doc "cands")))
  in
  if reset then Hashtbl.reset s.pending;
  let sp = Obs.enter ~cat:"cluster" "cluster.ingest" in
  let vios = ref [] in
  let verdicts =
    List.map
      (fun cand ->
        s.ingested <- s.ingested + 1;
        (* dedupe on the key first: only a fresh remote candidate is
           ever replayed *)
        let key, shard, cfg =
          match cand with
          | Msg.Local id -> (
            match Hashtbl.find_opt s.made id with
            | Some m -> (m.key, m.shard, fun () -> m.cfg)
            | None -> bad "bad-request" (Printf.sprintf "no local successor %d" id))
          | Msg.Remote (raw, events) ->
            let key = Ckey.of_string raw in
            (key, Shard.owner ~shards:s.shards key, fun () -> replay s key events)
        in
        if s.owners.(shard) <> s.self then
          bad "bad-request" (Printf.sprintf "shard %d is not held here" shard);
        let tbl = visited_for s shard in
        if Ckey.Tbl.mem tbl key then begin
          s.dup_hits <- s.dup_hits + 1;
          Msg.Dup
        end
        else begin
          Ckey.Tbl.replace tbl key ();
          s.inserted <- s.inserted + 1;
          let cfg = cfg () in
          let idx = Hashtbl.length s.pending in
          Hashtbl.replace s.pending idx cfg;
          if do_examine then
            let stop, probes =
              examine s cfg ~vio:(fun v ->
                  vios := Json.Obj [ ("i", Json.Int idx); ("v", v) ] :: !vios)
            in
            Msg.Fresh { stop; probes }
          else Msg.Fresh { stop = 0; probes = 0 }
        end)
      cands
  in
  Obs.set_int sp "cands" (List.length cands);
  Obs.close sp;
  Obs.Metrics.incr ~by:(List.length cands) "cluster.ingested";
  Json.Obj
    [ ("flags", Json.Str (Msg.verdicts_to_block verdicts));
      ("vios", Json.List (List.rev !vios)) ]

(* Successors in the serial engine's order, so the coordinator can
   rebuild the serial frontier; each is kept under the next id. *)
let successors s cfg =
  let ps =
    match s.skind with
    | Exam _ -> Pset.all s.proto.Protocol.num_processes
    | Reach (_, ps) -> ps
  in
  let acc = ref [] in
  Config.iter_successors s.proto cfg ps (fun pid coin cfg' ->
      let key = Ckey.pack s.pk cfg' in
      let shard = Shard.owner ~shards:s.shards key in
      Hashtbl.replace s.made (Hashtbl.length s.made) { cfg = cfg'; key; shard };
      acc :=
        { Msg.event = { Execution.pid; coin };
          shard;
          key = (if s.owners.(shard) = s.self then None else Some (Ckey.to_raw key)) }
        :: !acc);
  List.rev !acc

let handle_expand (Search s) doc =
  let reset = or_bad "bad-request" (Msg.get_bool_opt doc "reset" ~default:false) in
  let items =
    or_bad "bad-request"
      (Msg.ints_of_block (or_bad "bad-request" (Msg.get_str doc "items")))
  in
  if reset then Hashtbl.reset s.made;
  let sp = Obs.enter ~cat:"cluster" "cluster.expand" in
  let out =
    List.map
      (fun idx ->
        match Hashtbl.find_opt s.pending idx with
        | None -> bad "bad-request" (Printf.sprintf "no pending item %d" idx)
        | Some cfg ->
          s.expanded <- s.expanded + 1;
          successors s cfg)
      items
  in
  Obs.set_int sp "items" (List.length items);
  Obs.close sp;
  Obs.Metrics.incr ~by:(List.length items) "cluster.expanded";
  Json.Obj [ ("succs", Json.Str (Msg.succs_to_block ~shards:s.shards out)) ]

let stats_json (Search s) =
  Json.Obj
    [
      ("ingested", Json.Int s.ingested);
      ("examined", Json.Int s.examined);
      ("expanded", Json.Int s.expanded);
      ("inserted", Json.Int s.inserted);
      ("dup_hits", Json.Int s.dup_hits);
      ("replayed", Json.Int s.replayed);
      ("shards_held",
        Json.Int (Array.fold_left (fun n t -> if Option.is_some t then n + 1 else n) 0 s.visited));
    ]

(* --- dispatch ------------------------------------------------------------ *)

let mutating = function
  | "cluster-ingest" | "cluster-expand" -> true
  | _ -> false

let handle t payload =
  match Json.of_string payload with
  | Error msg -> err ~id:0 "bad-json" msg
  | Ok doc -> (
    let id =
      Option.value ~default:0 (Option.bind (Json.member "id" doc) Json.to_int_opt)
    in
    try
      let op = or_bad "bad-request" (Msg.get_str doc "op") in
      match op with
      | "cluster-ping" ->
        Msg.ok_result ~id
          (Json.Obj
             [ ("pong", Json.Bool true);
               ("searches", Json.Int (Hashtbl.length t.searches)) ])
      | "cluster-init" -> Msg.ok_result ~id (handle_init t doc)
      | "cluster-finish" -> (
        let search_id = or_bad "bad-request" (Msg.get_str doc "search") in
        match Hashtbl.find_opt t.searches search_id with
        | None ->
          (* a lost finish reply retried after the drop: still success *)
          Msg.ok_result ~id (Json.Obj [ ("already_finished", Json.Bool true) ])
        | Some packed ->
          Hashtbl.remove t.searches search_id;
          log t "finish %s" search_id;
          Msg.ok_result ~id (Json.Obj [ ("stats", stats_json packed) ]))
      | op when mutating op -> (
        let search_id = or_bad "bad-request" (Msg.get_str doc "search") in
        let seq = or_bad "bad-request" (Msg.get_int doc "seq") in
        match Hashtbl.find_opt t.searches search_id with
        | None -> err ~id "unknown-search" search_id
        | Some (Search s as packed) ->
          if seq = s.last_seq then begin
            (* duplicate delivery (a retry whose original answer was
               lost): replay the memoized reply byte-for-byte *)
            match s.last_reply with
            | Some r -> r
            | None -> err ~id "stale-seq" "duplicate of an unanswered seq"
          end
          else if seq < s.last_seq then err ~id "stale-seq" (string_of_int seq)
          else begin
            let result =
              match op with
              | "cluster-ingest" -> handle_ingest packed doc
              | "cluster-expand" -> handle_expand packed doc
              | _ -> assert false
            in
            let reply = Msg.ok_result ~id result in
            s.last_seq <- seq;
            s.last_reply <- Some reply;
            reply
          end)
      | op -> err ~id "bad-request" (Printf.sprintf "unknown op %S" op)
    with
    | Bad (code, msg) -> err ~id code msg
    | exn -> err ~id "internal" (Printexc.to_string exn))

(* --- TCP server ---------------------------------------------------------- *)

module Evloop = Ts_service.Evloop
module Frame = Ts_service.Frame

type config = {
  host : string;
  port : int;
  verbose : bool;
}

let default_config = { host = "127.0.0.1"; port = 0; verbose = false }

type server = {
  bound_port : int;
  stop_flag : bool Atomic.t;
  mutable loop_domain : unit Domain.t option;
  mutable waited : bool;
}

let start config =
  let worker = create ~verbose:config.verbose () in
  let lsock, bound_port = Evloop.listen ~host:config.host ~port:config.port in
  let evloop = Evloop.create ~lsock in
  let stop_flag = Atomic.make false in
  let srv = { bound_port; stop_flag; loop_domain = None; waited = false } in
  srv.loop_domain <-
    Some
      (Domain.spawn (fun () ->
           Evloop.run evloop
             ~stop:(fun () -> Atomic.get stop_flag)
             ~on_payload:(fun _conn payload ->
               (* every answer is produced on the loop: worker compute is
                  the deliberately single-threaded shard-local step, and
                  one coordinator talks to us strictly sequentially *)
               Evloop.Now (handle worker payload))
             ~on_frame_error:(fun e ->
               Some
                 (Json.to_string
                    (Ts_service.Response.error ~id:None ~code:"bad-frame"
                       (Frame.error_to_string e))))));
  Printf.printf "cluster worker: listening on %s:%d\n%!" config.host bound_port;
  srv

let port srv = srv.bound_port
let request_stop srv = Atomic.set srv.stop_flag true

let wait srv =
  if not srv.waited then begin
    srv.waited <- true;
    match srv.loop_domain with Some d -> Domain.join d | None -> ()
  end

let stop srv =
  request_stop srv;
  wait srv
