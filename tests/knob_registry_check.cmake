# Checks README's environment-knob table against the code, both ways:
#   * every quoted "GOCC_<NAME>" literal in the C++/Python sources under
#     src/, bench/, perfbench/, examples/ and tests/ must have a row, and
#   * every knob a row names must be read somewhere: as such a literal, or
#     as a token in a CMake file (cache variables, compile definitions).
# A knob nobody documents, or a row for a knob that was deleted, fails here.
#
# Usage: cmake -DREPO=<repo root> [-DDOC=<doc>] -P tests/knob_registry_check.cmake
#
# DOC (relative to REPO) defaults to README.md. The table is the one under
# the "### Environment knobs" heading; a row's knobs are the GOCC_ names in
# its first cell. GOCC_TEST_* names are test fixtures, not knobs, and
# tests/fixtures/ is not scanned.

cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)

if(NOT DEFINED REPO)
  message(FATAL_ERROR "pass -DREPO=<repo root>")
endif()
if(NOT DEFINED DOC)
  set(DOC README.md)
endif()

set(dirs src bench perfbench examples tests)
set(source_globs "")
set(cmake_globs "")
foreach(dir IN LISTS dirs)
  foreach(ext h cc cpp py)
    list(APPEND source_globs "${REPO}/${dir}/*.${ext}")
  endforeach()
  list(APPEND cmake_globs "${REPO}/${dir}/CMakeLists.txt"
       "${REPO}/${dir}/*.cmake")
endforeach()
file(GLOB_RECURSE sources RELATIVE "${REPO}" ${source_globs})
file(GLOB_RECURSE cmake_files RELATIVE "${REPO}" ${cmake_globs})
if(EXISTS "${REPO}/CMakeLists.txt")
  list(APPEND cmake_files CMakeLists.txt)
endif()
list(FILTER sources EXCLUDE REGEX "^tests/fixtures/")
list(FILTER cmake_files EXCLUDE REGEX "^tests/fixtures/")

# Knob name -> first file that reads it, for the error message.
set(literals "")
foreach(path IN LISTS sources)
  file(READ "${REPO}/${path}" text)
  string(REGEX MATCHALL "\"GOCC_[A-Z0-9_]+" found "${text}")
  foreach(lit IN LISTS found)
    string(SUBSTRING "${lit}" 1 -1 name)
    if(name MATCHES "^GOCC_TEST_" OR name IN_LIST literals)
      continue()
    endif()
    list(APPEND literals "${name}")
    set(where_${name} "${path}")
  endforeach()
endforeach()

set(cmake_tokens "")
foreach(path IN LISTS cmake_files)
  file(READ "${REPO}/${path}" text)
  string(REGEX MATCHALL "GOCC_[A-Z0-9_]+" found "${text}")
  list(APPEND cmake_tokens ${found})
endforeach()
list(REMOVE_DUPLICATES cmake_tokens)

file(READ "${REPO}/${DOC}" doc)
string(FIND "${doc}" "### Environment knobs" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${DOC}: no \"### Environment knobs\" section")
endif()
string(SUBSTRING "${doc}" ${start} -1 section)
string(LENGTH "### Environment knobs" heading_len)
string(SUBSTRING "${section}" ${heading_len} -1 body)
string(REGEX MATCH "\n#" next_heading "${body}")
if(next_heading)
  string(FIND "${body}" "\n#" end)
  string(SUBSTRING "${body}" 0 ${end} body)
endif()
string(REGEX MATCHALL "\n\\|[^|\n]*\\|" first_cells "${body}")
set(rows "")
foreach(cell IN LISTS first_cells)
  string(REGEX MATCHALL "GOCC_[A-Z0-9_]+" names "${cell}")
  list(APPEND rows ${names})
endforeach()
list(REMOVE_DUPLICATES rows)

list(LENGTH literals n_literals)
list(LENGTH rows n_rows)
if(n_literals EQUAL 0 OR n_rows EQUAL 0)
  message(FATAL_ERROR "found ${n_literals} knob literals and ${n_rows} "
                      "table knobs; the patterns no longer match the tree")
endif()

set(bad "")
foreach(name IN LISTS literals)
  if(NOT name IN_LIST rows)
    list(APPEND bad "${name} (read in ${where_${name}}): no row in ${DOC}")
  endif()
endforeach()
foreach(name IN LISTS rows)
  if(NOT name IN_LIST literals AND NOT name IN_LIST cmake_tokens)
    list(APPEND bad "${name}: ${DOC} has a row, but no code reads it")
  endif()
endforeach()

if(bad)
  string(REPLACE ";" "\n  " bad "${bad}")
  message(FATAL_ERROR "knob registry out of date:\n  ${bad}")
endif()
message(STATUS "${n_literals} knob literals, ${n_rows} table knobs: "
               "every literal has a row and every row is read")
