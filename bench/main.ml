(* Experiment harness entry point.

   `dune exec bench/main.exe` prints every experiment table (E1-E19);
   `dune exec bench/main.exe -- e5` prints one; `-- micro` runs the
   Bechamel micro-benchmarks (E11/E12).  `--rev REV` (default
   "unknown") names the source revision the BENCH_SCALE.json lines
   record. *)

let experiments =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e3", Experiments.e3);
    ("e4", Experiments.e4);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("e13", Experiments.e13);
    ("e14", Experiments.e14);
    ("e15", Experiments.e15);
    ("e16", Experiments.e16);
    ("e17", Experiments.e17);
    ("e18", Experiments.e18);
    ("e19", Experiments.e19);
    ("e20", Scale.e20);
    ("e20-smoke", Scale.e20_smoke);
    ("e20-diag", Scale.e20_diag);
    ("e22", Scale.e22);
    ("e22-smoke", Scale.e22_smoke);
    ("e23", Certifier.e23);
    ("e24", Scale.e24);
    ("micro", Micro.run);
  ]

let print_tables tables =
  List.iter
    (fun t ->
      Bmx_util.Table.print t;
      print_newline ())
    tables

(* The experiment names, with [--rev REV] taken out. *)
let rec names_of = function
  | "--rev" :: v :: rest ->
      Scale.rev := v;
      names_of rest
  | [ "--rev" ] ->
      prerr_endline "--rev needs a revision";
      exit 2
  | name :: rest -> name :: names_of rest
  | [] -> []

let () =
  match names_of (List.tl (Array.to_list Sys.argv)) with
  | [] ->
      print_endline "BMX experiment harness - reproducing Ferreira & Shapiro, OSDI '94";
      print_endline "(figures E1-E4 as executable scenarios; claims E5-E13 as measurements)";
      print_newline ();
      (* The scalability sweep (e20) runs minutes and rewrites
         BENCH_SCALE.json — run it explicitly, not as part of "all". *)
      let skip =
        [ "micro"; "e20"; "e20-smoke"; "e20-diag"; "e22"; "e22-smoke" ]
      in
      List.iter
        (fun (name, f) ->
          if not (List.mem name skip) then begin
            Printf.printf "### %s\n\n" (String.uppercase_ascii name);
            print_tables (f ())
          end)
        experiments;
      Printf.printf "### MICRO (E11/E12)\n\n";
      print_tables (Micro.run ())
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt (String.lowercase_ascii name) experiments with
          | Some f -> print_tables (f ())
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
