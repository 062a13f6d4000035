# ctest driver for dse_figures (see bench.cmake): runs every figure on a
# copy of the committed cache, rewrites a copy of EXPERIMENTS.md, and fails
# if any claim fails or any generated block differs from the committed one.
#   cmake -DFIGURES=<dse_figures> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch>
#         -P check_figures.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(COPY ${SOURCE_DIR}/EXPERIMENTS.md ${SOURCE_DIR}/dse_cache.csv
     DESTINATION ${WORK_DIR})
set(ENV{MUSA_DSE_CACHE} ${WORK_DIR}/dse_cache.csv)
execute_process(
  COMMAND ${FIGURES} --csv ${WORK_DIR}/csv
          --experiments ${WORK_DIR}/EXPERIMENTS.md
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${out}\ndse_figures exited ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${SOURCE_DIR}/EXPERIMENTS.md
          ${WORK_DIR}/EXPERIMENTS.md
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND diff -u ${SOURCE_DIR}/EXPERIMENTS.md
                          ${WORK_DIR}/EXPERIMENTS.md)
  message(FATAL_ERROR "EXPERIMENTS.md's generated blocks are stale: run "
                      "`dse_figures --experiments EXPERIMENTS.md` and commit")
endif()
