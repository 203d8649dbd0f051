# Runs one driver and byte-compares its output with a committed golden file.
#
#   cmake -DDRIVER=<exe> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         [-DOUT_FLAG=--csv=] -P golden_diff.cmake
#
# The driver's stdout is the output unless OUT_FLAG is set, in which case
# the driver writes OUT itself (OUT_FLAG is prefixed to the path). A nonzero
# driver exit fails the check too, as it fails the matching CI step.

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED OUT_FLAG)
  execute_process(COMMAND ${DRIVER} ${args} ${OUT_FLAG}${OUT} RESULT_VARIABLE rc OUTPUT_QUIET)
else()
  execute_process(COMMAND ${DRIVER} ${args} RESULT_VARIABLE rc OUTPUT_FILE ${OUT})
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN} RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN} (diff the two to see the drift)")
endif()
