let () =
  Alcotest.run "pathexpander"
    [
      ("util", Test_util.tests);
      ("isa", Test_isa.tests);
      ("asm", Test_asm.tests);
      ("machine", Test_machine.tests);
      ("cpu", Test_cpu.tests);
      ("compiler", Test_compiler.tests);
      ("passes", Test_passes.tests);
      ("engine", Test_engine.tests);
      ("softpe", Test_softpe.tests);
      ("detectors", Test_detectors.tests);
      ("workloads", Test_workloads.tests);
      ("extensions", Test_extensions.tests);
      ("telemetry", Test_telemetry.tests);
      ("recorder", Test_recorder.tests);
      ("parallel", Test_parallel.tests);
      ("more", Test_more.tests);
      ("selective", Test_selective.tests);
      ("cache-properties", Test_cache_props.tests);
      ("cache-fastpath", Test_cache_fastpath.tests);
      ("properties", Test_props.tests);
      ("obs", Test_obs.tests);
    ]
