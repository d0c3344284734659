(** Build-time layering lint: the collector layer ([lib/core]) must never
    call the DSM token APIs.

    The paper's central claim (§5) is that the collector needs {e no}
    token acquisitions — it works on local state, background messages,
    and the sanctioned hooks the protocol exposes
    ({!Bmx_dsm.Protocol.set_hooks}, installed once by
    [Bmx_gc.Invariants.install]).  This scanner enforces that statically:
    any source file in the collector layer that names
    [Protocol.acquire], [Protocol.release], [Protocol.demand_fetch] or
    an unsanctioned [Protocol.set_hooks] is rejected at build time (the
    [@lint] alias, wired into [dune runtest]).

    The scan strips OCaml comments (nested) and string/char literals, and
    tracks [module X = Bmx_dsm.Protocol]-style aliases, so doc comments
    citing the API don't trip it and renaming the module doesn't evade
    it. *)

type finding = {
  file : string;
  line : int;
  path : string;  (** the offending dotted path, e.g. ["Protocol.acquire"] *)
}

val pp_finding : Format.formatter -> finding -> unit

val scan_source : file:string -> string -> finding list
(** Scan one file's contents.  [file] is used for reporting and for the
    basename check that exempts the one place each hook is legitimately
    installed. *)

val scan_dir : string -> finding list
(** Scan every [.ml]/[.mli] file under a directory (recursively),
    skipping [_build] and dot-directories.  Findings are sorted by file
    then line. *)
