(* The benchmark's workload process: runs one workload and prints every
   metric by name with its unit, then the result line.

     perfbench.exe --workload theorem1|search|serve --seed N --seconds S
                   --trace 0|1 [--dir SCRATCH]

   [--trace 0] reports the end-to-end metrics of an untraced run;
   [--trace 1] splits the time between an untraced and a traced half and
   reports the per-layer metrics.  Each per-layer metric belongs to one
   workload; the others report it as 0 (not measured there).  Normally
   started by run.py, which builds this program first. *)

let workloads =
  [
    ("theorem1", W_theorem1.layers);
    ("search", W_search.layers);
    ("serve", W_serve.layers);
  ]

let all_layers =
  List.concat_map snd workloads @ [ ("obs.tracing_overhead_pct", "%") ]

(* The workload's own per-layer metrics must be exactly the ones it
   declares, plus the tracing overhead; every other one reads 0. *)
let fill_layers own (ms : Common.metric list) =
  let declared = own @ [ ("obs.tracing_overhead_pct", "%") ] in
  let got = List.map (fun m -> (m.Common.name, m.Common.unit_)) ms in
  if List.sort compare got <> List.sort compare declared then begin
    prerr_endline "perfbench: per-layer metrics differ from the declared list";
    exit 2
  end;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.Common.name = name) ms with
      | Some m -> m
      | None -> Common.metric name unit_ 0. ~note:"not measured on this workload")
    all_layers

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and dir = ref ".bench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME theorem1, search or serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for store files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let run =
    match !workload with
    | "theorem1" -> W_theorem1.run
    | "search" -> W_search.run
    | "serve" -> W_serve.run ~dir:!dir
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let r = run ~seed ~seconds ~trace in
  let metrics =
    if trace then begin
      let layer = fill_layers (List.assoc !workload workloads) r.Common.layer in
      Common.print_metrics "per layer:" layer;
      layer
    end
    else begin
      let rss = Common.metric "peak_rss_mb" "MiB" (Common.peak_rss_mb ()) in
      let e2e = r.Common.e2e @ [ rss ] in
      Common.print_metrics "end-to-end:" e2e;
      e2e
    end
  in
  List.iter (fun (k, v) -> Printf.printf "exact %s %d\n" k v) r.Common.exact;
  List.iter
    (fun (k, vs) ->
      Printf.printf "NONDETERMINISTIC %s took %s\n" k
        (String.concat ", " (List.map string_of_int vs)))
    !Common.nondeterminism;
  Printf.printf "failed_pct %.4f (%d of %d ops)\n"
    (100. *. Common.ratio r.Common.failed r.Common.attempted)
    r.Common.failed r.Common.attempted;
  Common.print_result ~correct:(r.Common.failed = 0)
    ~attempted:r.Common.attempted ~failed:r.Common.failed metrics
