# Runs BINARY with ARGS (one space-separated string) and passes when it
# exits 1 with EXPECT in its stderr: a command-line refusal that names what
# it refuses, instead of a crash or a run that starts.
#
#   cmake -DBINARY=path -DARGS="--flag value" -DEXPECT=text -P expect_refusal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "${BINARY} ${ARGS}: exit '${code}', expected 1\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BINARY} ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
