# One binary per paper table/figure, plus substrate microbenchmarks and
# design ablations. Declared at top-level scope with a dedicated runtime
# output directory so build/bench/ contains ONLY executables:
#   for b in build/bench/*; do $b; done
# regenerates the full evaluation with no stray files.

function(c4h_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

c4h_bench(fig4_home_vs_remote c4h_vstore)
c4h_bench(table1_fetch_breakdown c4h_vstore)
c4h_bench(fig5_optimal_object_size c4h_vstore)
c4h_bench(fig6_fetch_throughput c4h_vstore c4h_trace)
c4h_bench(split_processing c4h_vstore)
c4h_bench(fig7_service_placement c4h_vstore)
c4h_bench(fig8_dynamic_routing c4h_vstore)
c4h_bench(ablation_design c4h_vstore c4h_workload)
c4h_bench(ablation_choices c4h_vstore c4h_trace)
c4h_bench(scaling_study c4h_vstore)
c4h_bench(micro_substrate c4h_mon c4h_overlay)
target_link_libraries(micro_substrate PRIVATE benchmark::benchmark)

# Workload scenario family (DESIGN.md §11): multi-tenant traffic against the
# full home cloud, emitting tail-latency (p50/p99/p999) series.
c4h_bench(scenario_iot_telemetry c4h_workload)
c4h_bench(scenario_flash_crowd c4h_workload)
c4h_bench(scenario_mixed_tenants c4h_workload)
c4h_bench(scenario_edonkey_replay c4h_workload)
# City-scale federation scenario (DESIGN.md §12): cross-neighborhood tenants
# over the two-tier overlay, tails split by fetch path.
c4h_bench(scenario_federation c4h_workload c4h_federation)

# The paper reproduction (Fig. 4-8, §V-B split processing, the placement
# choice ablation) runs under ctest with the `paper` label. The benches write
# their JSON into build/paper, so the BENCH_*.json glob that bench-compare
# checks in build/bench never picks up an artifact that has no baseline.
file(MAKE_DIRECTORY ${CMAKE_BINARY_DIR}/paper)
foreach(b fig4_home_vs_remote fig5_optimal_object_size fig6_fetch_throughput
          fig7_service_placement fig8_dynamic_routing split_processing ablation_choices)
  add_test(NAME paper.${b} COMMAND ${b} WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/paper)
  set_tests_properties(paper.${b} PROPERTIES LABELS paper)
endforeach()
