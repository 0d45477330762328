# Toy-size benchmark driver, invoked by CTest as
#   cmake -DPERFBENCH_BIN=... "-DPERFBENCH_ARGS=..." -DSCRATCH=... \
#         -P run_perfbench.cmake
#
# Removes the run's scratch directory first (perfbench refuses one that
# exists, and a crashed run leaves its own behind), runs the benchmark
# binary on it, and passes only on exit 0: every op ran and passed its
# output check. Exit 1 (a failed check) and 2 (a usage or set-up error, a
# crash) are the ways a full benchmark run ends without a result.

foreach(required PERFBENCH_BIN PERFBENCH_ARGS SCRATCH)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "run_perfbench.cmake: missing -D${required}")
  endif()
endforeach()

file(REMOVE_RECURSE "${SCRATCH}")
separate_arguments(perfbench_args UNIX_COMMAND "${PERFBENCH_ARGS}")
execute_process(
  COMMAND "${PERFBENCH_BIN}" ${perfbench_args} --scratch "${SCRATCH}"
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "perfbench ${PERFBENCH_ARGS} exited with ${rc} (expected 0)\n"
    "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
endif()
