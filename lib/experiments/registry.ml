(* Experiment registry: every table and figure of the paper, the ablations
   and the modelled extensions, addressable by id. *)

type experiment = { id : string; title : string; run : unit -> unit }

let experiments =
  [
    { id = "table1"; title = "Table I: Airfoil per-loop time and bandwidth";
      run = Figures.table1 };
    { id = "fig2"; title = "Fig 2: Airfoil single-node performance"; run = Figures.fig2 };
    { id = "fig3"; title = "Fig 3: Hydra single-node performance"; run = Figures.fig3 };
    { id = "fig4"; title = "Fig 4: Airfoil vs Hydra cluster scaling"; run = Figures.fig4 };
    { id = "fig5"; title = "Fig 5: CloverLeaf hand-coded vs OPS"; run = Figures.fig5 };
    { id = "fig6"; title = "Fig 6: CloverLeaf scaling on Titan"; run = Figures.fig6 };
    { id = "fig7"; title = "Fig 7: generated CUDA memory strategies"; run = Figures.fig7 };
    { id = "fig8"; title = "Fig 8: checkpoint planning"; run = Figures.fig8 };
    { id = "ablations"; title = "Design-choice ablations"; run = Ablations.all };
    { id = "ext"; title = "Extensions: TeaLeaf-sim & CloverLeaf 3D modelled";
      run = Extensions.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) experiments

let run_all () =
  List.iter
    (fun e ->
      Printf.printf "######## %s — %s ########\n\n%!" e.id e.title;
      e.run ())
    experiments
