# Runs one driver with a malformed flag and checks that it rejects it as a
# usage error: exit status 2 and the flag named on stderr.
#
#   cmake -DDRIVER=<exe> -DARGS="<args>" -DFLAG=<flag> -P usage_error.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${DRIVER} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${DRIVER} ${ARGS} exited with ${rc}, expected 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${DRIVER} ${ARGS}: stderr does not name ${FLAG}:\n${err}")
endif()
