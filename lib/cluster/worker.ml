open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Obs = Ts_obs.Obs

(* What the per-configuration work of a search is: the property examine
   of check/resilient, or the reachability test of a valency probe. *)
type 's skind =
  | Exam of 's Explore.examiner
  | Reach of Value.t * Pset.t

type 's search = {
  proto : 's Protocol.t;
  pk : 's Ckey.packer;
  inputs : Value.t array;
  skind : 's skind;
  shards : int;
  (* shard -> visited raw-digest set; tables appear on first ingest for
     the shard and leave wholesale on steal-export *)
  visited : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  (* worker-local candidate index -> materialized config + forward
     schedule, for the round's expand phase *)
  pending : (int, 's Config.t * Execution.event list) Hashtbl.t;
  mutable last_seq : int;
  mutable last_reply : string option;
  (* telemetry, reported at finish *)
  mutable ingested : int;
  mutable examined : int;
  mutable expanded : int;
  mutable inserted : int;
  mutable dup_hits : int;
  mutable steals_out : int;
  mutable steals_in : int;
}

type packed = Search : 's search -> packed

type t = {
  searches : (string, packed) Hashtbl.t;
  verbose : bool;
}

let create ?(verbose = false) () = { searches = Hashtbl.create 8; verbose }
let active_searches t = Hashtbl.length t.searches

let log t fmt =
  if t.verbose then Printf.eprintf ("cluster worker: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let err ~id code msg = Json.to_string (Ts_service.Response.error ~id:(Some id) ~code msg)

exception Bad of string * string  (* code, message *)

let bad code msg = raise (Bad (code, msg))
let or_bad code = function Ok v -> v | Error msg -> bad code msg

let visited_for s shard =
  match Hashtbl.find_opt s.visited shard with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 1024 in
    Hashtbl.replace s.visited shard tbl;
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
  if shards <= 0 then bad "bad-request" "shards must be positive";
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
      let target = or_bad "bad-request" (Msg.get_int doc "target") in
      let mask = or_bad "bad-request" (Msg.get_int doc "ps_mask") in
      let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
      Reach (Value.int target, ps)
    | m -> bad "bad-request" (Printf.sprintf "unknown mode %S" m)
  in
  let pk = Ckey.packer proto in
  let s =
    {
      proto; pk; inputs; skind; shards;
      visited = Hashtbl.create 16;
      pending = Hashtbl.create 256;
      last_seq = 0;
      last_reply = None;
      ingested = 0; examined = 0; expanded = 0; inserted = 0; dup_hits = 0;
      steals_out = 0; steals_in = 0;
    }
  in
  (* re-init of a known id replaces it: init is the coordinator's first
     message per search, so a replacement only ever discards a state the
     same coordinator abandoned *)
  Hashtbl.replace t.searches search_id (Search s);
  log t "init %s: %s n=%d mode=%s shards=%d" search_id name n mode shards;
  let root = Config.initial proto ~inputs in
  let root_shard = Shard.owner ~shards (Ckey.pack pk root) in
  Json.Obj [ ("ready", Json.Bool true); ("root_shard", Json.Int root_shard) ]

(* --- per-round messages -------------------------------------------------- *)

let handle_ingest (Search s) doc =
  let reset = or_bad "bad-request" (Msg.get_bool_opt doc "reset" ~default:false) in
  let base = or_bad "bad-request" (Msg.get_int_opt doc "base" ~default:0) in
  let do_examine =
    or_bad "bad-request" (Msg.get_bool_opt doc "examine" ~default:true)
  in
  let cands =
    or_bad "bad-request"
      (Msg.cands_of_json
         (match Json.member "cands" doc with
          | Some l -> l
          | None -> Json.List []))
  in
  if reset then Hashtbl.reset s.pending;
  let sp = Obs.enter ~cat:"cluster" "cluster.ingest" in
  let flags = Buffer.create (List.length cands) in
  let exams = ref [] in
  List.iteri
    (fun i { Msg.shard; sched } ->
      s.ingested <- s.ingested + 1;
      let events = or_bad "bad-request" (Msg.sched_of_string sched) in
      let cfg, _ =
        Execution.apply s.proto (Config.initial s.proto ~inputs:s.inputs) events
      in
      let raw = Ckey.to_raw (Ckey.pack s.pk cfg) in
      let tbl = visited_for s shard in
      if Hashtbl.mem tbl raw then begin
        s.dup_hits <- s.dup_hits + 1;
        Buffer.add_char flags '0'
      end
      else begin
        Hashtbl.replace tbl raw ();
        s.inserted <- s.inserted + 1;
        Buffer.add_char flags '1';
        let idx = base + i in
        Hashtbl.replace s.pending idx (cfg, events);
        if do_examine then begin
          s.examined <- s.examined + 1;
          match s.skind with
          | Exam ex ->
            let vio, probes = Explore.examine ex cfg ~schedule:events in
            let entry =
              [ ("i", Json.Int idx); ("p", Json.Int probes) ]
              @
              match vio with
              | None -> []
              | Some v -> [ ("v", Msg.violation_payload_to_json v) ]
            in
            exams := Json.Obj entry :: !exams
          | Reach (v, _) ->
            if Config.decides cfg v then
              exams := Json.Obj [ ("i", Json.Int idx); ("d", Json.Bool true) ] :: !exams
        end
      end)
    cands;
  Obs.set_int sp "cands" (List.length cands);
  Obs.close sp;
  Obs.Metrics.incr ~by:(List.length cands) "cluster.ingested";
  Json.Obj
    [ ("flags", Json.Str (Buffer.contents flags));
      ("exams", Json.List (List.rev !exams)) ]

(* Successors in the serial engine's order, so the coordinator can
   rebuild the serial frontier. *)
let successor_cands s cfg events =
  let ps =
    match s.skind with
    | Exam _ -> Pset.all s.proto.Protocol.num_processes
    | Reach (_, ps) -> ps
  in
  let acc = ref [] in
  Config.iter_successors s.proto cfg ps (fun pid coin cfg' ->
      acc :=
        { Msg.shard = Shard.owner ~shards:s.shards (Ckey.pack s.pk cfg');
          sched = Msg.sched_to_string (events @ [ { Execution.pid; coin } ]) }
        :: !acc);
  List.rev !acc

let handle_expand (Search s) doc =
  let items = or_bad "bad-request" (Msg.get_list doc "items") in
  let sp = Obs.enter ~cat:"cluster" "cluster.expand" in
  let out =
    List.map
      (fun item ->
        let idx =
          match Json.to_int_opt item with
          | Some i -> i
          | None -> bad "bad-request" "items must be integers"
        in
        match Hashtbl.find_opt s.pending idx with
        | None -> bad "bad-request" (Printf.sprintf "no pending item %d" idx)
        | Some (cfg, events) ->
          s.expanded <- s.expanded + 1;
          let succs = successor_cands s cfg events in
          Json.Obj [ ("i", Json.Int idx); ("c", Msg.cands_to_json succs) ])
      items
  in
  Obs.set_int sp "items" (List.length items);
  Obs.close sp;
  Obs.Metrics.incr ~by:(List.length items) "cluster.expanded";
  Json.Obj [ ("out", Json.List out) ]

let handle_steal_export (Search s) doc =
  let shard = or_bad "bad-request" (Msg.get_int doc "shard") in
  let keys =
    match Hashtbl.find_opt s.visited shard with
    | None -> []
    | Some tbl ->
      let ks = Hashtbl.fold (fun raw () acc -> Msg.hex_encode raw :: acc) tbl [] in
      Hashtbl.remove s.visited shard;
      (* sorted so the export is deterministic — steals must not make a
         run depend on hash-table iteration order *)
      List.sort String.compare ks
  in
  s.steals_out <- s.steals_out + 1;
  Obs.Metrics.incr "cluster.steals_out";
  Json.Obj [ ("keys", Json.List (List.map (fun k -> Json.Str k) keys)) ]

let handle_steal_import (Search s) doc =
  let shard = or_bad "bad-request" (Msg.get_int doc "shard") in
  let keys = or_bad "bad-request" (Msg.get_list doc "keys") in
  let tbl = visited_for s shard in
  List.iter
    (fun k ->
      match Json.to_str_opt k with
      | None -> bad "bad-request" "keys must be hex strings"
      | Some hex ->
        Hashtbl.replace tbl (or_bad "bad-request" (Msg.hex_decode hex)) ())
    keys;
  s.steals_in <- s.steals_in + 1;
  Obs.Metrics.incr "cluster.steals_in";
  Json.Obj [ ("imported", Json.Int (List.length keys)) ]

let stats_json (Search s) =
  Json.Obj
    [
      ("ingested", Json.Int s.ingested);
      ("examined", Json.Int s.examined);
      ("expanded", Json.Int s.expanded);
      ("inserted", Json.Int s.inserted);
      ("dup_hits", Json.Int s.dup_hits);
      ("steals_out", Json.Int s.steals_out);
      ("steals_in", Json.Int s.steals_in);
      ("shards_held", Json.Int (Hashtbl.length s.visited));
    ]

(* --- dispatch ------------------------------------------------------------ *)

let mutating = function
  | "cluster-ingest" | "cluster-expand" | "cluster-steal-export"
  | "cluster-steal-import" -> true
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
              | "cluster-steal-export" -> handle_steal_export packed doc
              | "cluster-steal-import" -> handle_steal_import packed doc
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
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port))
   with e ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen lsock 64;
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
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
