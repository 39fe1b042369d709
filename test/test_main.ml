let () =
  Alcotest.run "dmx"
    [
      ("value", Test_value.suite);
      ("expr", Test_expr.suite);
      ("expr-prop", Test_expr_prop.suite);
      ("page", Test_page.suite);
      ("btree", Test_btree.suite);
      ("rtree", Test_rtree.suite);
      ("wal", Test_wal.suite);
      ("lock", Test_lock.suite);
      ("txn", Test_txn.suite);
      ("catalog", Test_catalog.suite);
      ("smethod", Test_smethod.suite);
      ("attach", Test_attach.suite);
      ("hash", Test_hash.suite);
      ("integration", Test_integration.suite);
      ("recovery", Test_recovery.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("query", Test_query.suite);
      ("readpath", Test_readpath.suite);
      ("concurrency", Test_concurrency.suite);
      ("authz", Test_authz.suite);
      ("property", Test_property.suite);
      ("image", Test_image.suite);
      ("registry", Test_registry.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("sysview", Test_sysview.suite);
      ("querystore", Test_querystore.suite);
      ("chaos", Test_chaos.suite);
      ("lint", Test_lint.suite);
    ]
