# Bench and paper-artifact binaries. Declared at top level via include()
# so ${CMAKE_BINARY_DIR}/bench holds only runnable executables; every paper
# table and figure comes from one of them, `build/bench/dse_figures`.
function(musa_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE musa_core)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

musa_add_bench(run_dse)
musa_add_bench(dse_lint)
musa_add_bench(sweep_bench)
# A mistyped flag or a baseline named as the output exits 2 before the
# bench runs, instead of becoming (or overwriting) the output file.
add_test(NAME sweep_bench.usage
  COMMAND sh -c "\"$0\" --no-such-flag; [ $? -eq 2 ] || exit 1; \"$0\" --check-regression base.json ./base.json; [ $? -eq 2 ]"
          $<TARGET_FILE:sweep_bench>)
# The sweep drivers speak to the elastic controller/worker library too.
target_link_libraries(run_dse PRIVATE musa_sweep)
target_link_libraries(sweep_bench PRIVATE musa_sweep)
# The DSE server daemon and its load generator (DESIGN.md §7i).
musa_add_bench(dse_serve)
target_link_libraries(dse_serve PRIVATE musa_serve)
musa_add_bench(dse_loadtest)
target_link_libraries(dse_loadtest PRIVATE musa_serve)
# A baseline that is also the output (the default --out included) exits 2
# before connecting; the socket does not exist, so connecting would exit 1.
add_test(NAME dse_loadtest.usage
  COMMAND sh -c "\"$0\" --socket no.sock --check-regression base.json --out ./base.json; [ $? -eq 2 ] || exit 1; \"$0\" --socket no.sock --check-regression BENCH_sweep.json; [ $? -eq 2 ]"
          $<TARGET_FILE:dse_loadtest>)
musa_add_bench(dse_figures)
# An unknown name or a --csv without its directory exits 2 before any
# figure runs; --help prints the usage and exits 0.
add_test(NAME dse_figures.usage
  COMMAND sh -c "\"$0\" no-such-figure; [ $? -eq 2 ] || exit 1; \"$0\" --csv; [ $? -eq 2 ] || exit 1; \"$0\" --help > /dev/null || exit 1; \"$0\" --help | grep -q '|report '"
          $<TARGET_FILE:dse_figures>)
# Every paper shape holds on the committed cache, and EXPERIMENTS.md's
# generated claim blocks are exactly what dse_figures writes (it runs on
# build-dir copies of both, so nothing in the source tree is touched).
add_test(NAME dse_figures.experiments
  COMMAND ${CMAKE_COMMAND} -DFIGURES=$<TARGET_FILE:dse_figures>
          -DSOURCE_DIR=${CMAKE_SOURCE_DIR}
          -DWORK_DIR=${CMAKE_BINARY_DIR}/dse_figures_check
          -P ${CMAKE_SOURCE_DIR}/bench/check_figures.cmake)
set_tests_properties(dse_figures.experiments PROPERTIES LABELS figures)
