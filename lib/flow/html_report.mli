(** Self-contained HTML sign-off reports: one file with the confusion
    matrix, per-layer breakdown, endangered-structure ranking, repair
    plan, and an inline SVG scatter — everything a reviewer needs without
    any tooling. Written by [emcheck analyze --html]. *)

val page :
  title:string ->
  ?material:Em_core.Material.t ->
  tech:Pdn.Tech.t ->
  compacts:Extract.compact_structure list ->
  Em_flow.result ->
  string
(** Render the full report as an HTML document string, from the result
    of a run over [compacts] (nothing is solved again). *)

val write :
  string ->
  title:string ->
  ?material:Em_core.Material.t ->
  tech:Pdn.Tech.t ->
  compacts:Extract.compact_structure list ->
  Em_flow.result ->
  unit
(** [write path ...]. *)
