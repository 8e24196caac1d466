let () =
  Alcotest.run "xnfdb"
    [
      ("relcore", Test_relcore.suite);
      ("sqlkit", Test_sqlkit.suite);
      ("qgm", Test_qgm.suite);
      ("planner", Test_planner.suite);
      ("executor", Test_executor.suite);
      ("batch", Test_batch.suite);
      ("colstore", Test_colstore.suite);
      ("spill", Test_colstore.spill_suite);
      ("joinfilter", Test_joinfilter.suite);
      ("parallel", Test_parallel.suite);
      ("engine", Test_engine.suite);
      ("cache", Test_cache.suite);
      ("ivm", Test_ivm.suite);
      ("xnf", Test_xnf.suite);
      ("cocache", Test_cocache.suite);
      ("workloads", Test_workloads.suite);
      ("net", Test_net.suite);
      ("analyze", Test_analyze.suite);
      ("writepath", Test_writepath.suite);
      ("properties", Test_props.suite);
    ]
